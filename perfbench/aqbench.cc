/**
 * @file
 * Whole-run benchmark program for aqsim (driven by perfbench/run.py).
 *
 * Runs one repetition of one benchmark workload in this process and
 * prints one JSON object with the host time of each call into a
 * layer's public API, the run's RunResult, the public counters of the
 * stats tree and event queues, and the outcome of decoding every
 * checkpoint image the run wrote. The program only measures and reports:
 * every correctness check lives in run.py, so its self-test can feed
 * the checks deliberately wrong facts.
 *
 *   aqbench --mode rep --workload W --seed S --workers K \
 *           --ckpt-dir DIR --traced 0|1
 *   aqbench --mode ref --workload W --seed S --workers K --traced 0|1
 *   aqbench --mode decode --file CHECKPOINT
 *
 * "ref" runs the workload's reference configuration: the fixed:1us
 * sequential ground truth for is-adaptive, the same configuration on
 * the in-process ThreadedEngine for cg-distributed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/logging.hh"
#include "ckpt/checkpoint.hh"
#include "core/quantum_policy.hh"
#include "engine/cluster.hh"
#include "engine/distributed_engine.hh"
#include "engine/sequential_engine.hh"
#include "engine/threaded_engine.hh"
#include "harness/experiment.hh"
#include "stats/stats.hh"
#include "workloads/nas_cg.hh"
#include "workloads/nas_ep.hh"
#include "workloads/nas_is.hh"

using namespace aqsim;

namespace
{

enum class EngineKind
{
    Sequential,
    Threaded,
    Distributed,
};

/** One benchmark workload: application, cluster and engine. */
struct Config
{
    std::string name;
    std::string app;
    std::size_t nodes = 0;
    std::string policy;
    EngineKind engine = EngineKind::Sequential;
    double dropRate = 0.0;
    bool reliable = false;
    /**
     * Checkpoint period in quanta, chosen so that a run writes one
     * mid-run image: its quanta fall in [every, 2 * every) on every
     * seed measured (ep 625-867 over 40 seeds, is ~11.3k, cg 2394).
     */
    std::uint64_t checkpointEvery = 0;
};

Config
lookupConfig(const std::string &name)
{
    if (name == "ep-wide-lossy")
        return {name, "nas.ep", 1024, "fixed:1us",
                EngineKind::Sequential, 0.01, true, 500};
    if (name == "is-adaptive")
        return {name, "nas.is", 256, "dyn:1.03:0.02:1us:1000us",
                EngineKind::Threaded, 0.0, false, 7000};
    if (name == "cg-distributed")
        return {name, "nas.cg", 1024, "fixed:1us",
                EngineKind::Distributed, 0.0, false, 1500};
    fatal("unknown workload '%s'", name.c_str());
}

std::unique_ptr<workloads::Workload>
makeApp(const Config &config)
{
    if (config.app == "nas.ep")
        return std::make_unique<workloads::NasEp>(
            config.nodes, 1.0, workloads::NasEp::Params{});
    if (config.app == "nas.is")
        return std::make_unique<workloads::NasIs>(
            config.nodes, 1.0, workloads::NasIs::Params{});
    return std::make_unique<workloads::NasCg>(
        config.nodes, 1.0, workloads::NasCg::Params{});
}

engine::ClusterParams
makeClusterParams(const Config &config, std::uint64_t seed)
{
    auto params = harness::defaultCluster(config.nodes, seed);
    params.faults.dropRate = config.dropRate;
    params.mpiParams.reliable = config.reliable;
    return params;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Current resident set of this process in KiB. */
long
currentRssKb()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    statm >> size >> resident;
    return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

long
maxRssKb(int who)
{
    rusage usage{};
    ::getrusage(who, &usage);
    return usage.ru_maxrss;
}

/** Minimal JSON object writer (flat keys, nested objects by string). */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    Json &
    count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &
    flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c == '\n') ? ' ' : c;
        }
        return raw(key, quoted + "\"");
    }
    Json &
    obj(const std::string &key, const Json &child)
    {
        return raw(key, child.text());
    }
    std::string text() const { return "{" + body_ + "}"; }

    /** Append @p value, already encoded as JSON. */
    Json &
    raw(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + value;
        return *this;
    }

  private:
    std::string body_;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

Json
describeResult(const engine::RunResult &r)
{
    std::uint64_t ranks_done = 0;
    for (Tick t : r.finishTicks)
        ranks_done += t > 0 ? 1 : 0;
    std::uint64_t timeline_max_packets = 0;
    for (const auto &q : r.timeline)
        timeline_max_packets = std::max(timeline_max_packets, q.packets);
    Json j;
    j.str("engine", r.engine)
        .str("policy", r.policy)
        .count("num_nodes", r.numNodes)
        .count("sim_ticks", r.simTicks)
        .num("metric", r.metric)
        .num("host_ns", r.hostNs)
        .count("quanta", r.quanta)
        .count("packets", r.packets)
        .count("stragglers", r.stragglers)
        .count("next_quantum_deliveries", r.nextQuantumDeliveries)
        .num("mean_quantum_ticks", r.meanQuantumTicks)
        .count("dropped_frames", r.droppedFrames)
        .count("retransmits", r.retransmits)
        .count("checkpoints_written", r.checkpointsWritten)
        .count("checkpoint_bytes", r.checkpointBytes)
        .num("checkpoint_write_ns", r.checkpointWriteNs)
        .str("final_state_hash", hex(r.finalStateHash))
        .count("phase_sort_ns", r.phaseSortNs)
        .count("phase_exchange_ns", r.phaseExchangeNs)
        .count("phase_merge_ns", r.phaseMergeNs)
        .count("phase_dispatch_ns", r.phaseDispatchNs)
        .count("ranks_done", ranks_done)
        .count("timeline_quanta", r.timeline.size())
        .count("timeline_max_packets", timeline_max_packets);
    return j;
}

double
statValue(const stats::Group &group, const std::string &path)
{
    const auto *stat =
        dynamic_cast<const stats::Scalar *>(group.find(path));
    return stat ? stat->value() : 0.0;
}

/** Public counters of an in-process cluster after its run. */
Json
describeCounters(engine::Cluster &cluster)
{
    std::uint64_t events = 0, cancelled = 0;
    for (NodeId id = 0; id < cluster.numNodes(); ++id) {
        events += cluster.node(id).queue().numExecuted();
        cancelled += cluster.node(id).queue().numCancelled();
    }
    double msgs_sent = 0, msgs_recvd = 0, bytes_sent = 0,
           rendezvous = 0, unexpected = 0, retransmits = 0,
           tx_frames = 0;
    const stats::Group &root = cluster.statsRoot();
    for (const auto &child : root.children()) {
        if (child->name().rfind("node", 0) != 0)
            continue;
        msgs_sent += statValue(*child, "mpi.msgsSent");
        msgs_recvd += statValue(*child, "mpi.msgsRecvd");
        bytes_sent += statValue(*child, "mpi.bytesSent");
        rendezvous += statValue(*child, "mpi.rendezvous");
        unexpected += statValue(*child, "mpi.unexpectedHits");
        retransmits += statValue(*child, "mpi.retransmits");
        tx_frames += statValue(*child, "nic.txFrames");
    }
    Json j;
    j.count("events", events)
        .count("events_cancelled", cancelled)
        .num("msgs_sent", msgs_sent)
        .num("msgs_recvd", msgs_recvd)
        .num("bytes_sent", bytes_sent)
        .num("rendezvous", rendezvous)
        .num("unexpected_hits", unexpected)
        .num("retransmits", retransmits)
        .num("nic_tx_frames", tx_frames)
        .num("net_packets", statValue(root, "network.packets"))
        .num("net_bytes", statValue(root, "network.bytes"))
        .num("fault_dropped", statValue(root, "faults.dropped"))
        .flag("all_done", cluster.allDone());
    return j;
}

/** The structural parameters the run.py closed forms are derived from. */
Json
describeSkeleton(const Config &config, const engine::ClusterParams &p)
{
    Json j;
    j.str("app", config.app)
        .count("nodes", config.nodes)
        .str("policy", config.policy)
        .count("mtu", p.network.nic.mtu)
        .count("frame_overhead", p.mpiParams.frameOverhead)
        .count("eager_threshold", p.mpiParams.eagerThreshold);
    if (config.app == "nas.ep") {
        const workloads::NasEp::Params ep;
        j.count("reductions", ep.reductions)
            .count("reduction_bytes", ep.reductionBytes);
    } else if (config.app == "nas.is") {
        const workloads::NasIs::Params is;
        j.count("total_keys", is.totalKeys)
            .count("iterations", is.iterations)
            .count("bucket_bytes_per_pair", is.bucketBytesPerPair)
            .count("bytes_per_key", is.bytesPerKey);
    }
    return j;
}

/** Read and decode a checkpoint file, timing ckpt::decodeImage. */
Json
decodeFile(const std::string &path)
{
    Json j;
    j.str("file", std::filesystem::path(path).filename().string());
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        j.flag("ok", false).str("error", "cannot open");
        return j;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ckpt::CheckpointImage image;
    ckpt::CkptError error;
    const auto start = Clock::now();
    const bool ok = ckpt::decodeImage(bytes, image, error);
    const double decode_s = secondsSince(start);
    j.count("file_bytes", bytes.size())
        .flag("ok", ok)
        .str("error", ok ? "" : error.str())
        .num("decode_s", decode_s)
        .count("quantum", image.quantumIndex)
        .count("sections", image.sections.size());
    return j;
}

/** Checkpoint files in @p dir, oldest first. */
std::vector<std::string>
checkpointFiles(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".aqc")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * One repetition of an in-process workload, each layer's public call
 * timed on its own: construction, run, final-state hash, teardown.
 */
Json
runInProcess(const Config &config, EngineKind kind,
             const std::string &policy_spec,
             const engine::ClusterParams &params,
             engine::EngineOptions options)
{
    auto app = makeApp(config);
    auto policy = core::parsePolicy(policy_spec);

    const long rss_before = currentRssKb();
    const auto t_setup = Clock::now();
    std::unique_ptr<engine::SequentialEngine> seq;
    std::unique_ptr<engine::ThreadedEngine> thr;
    if (kind == EngineKind::Sequential)
        seq = std::make_unique<engine::SequentialEngine>(options);
    else
        thr = std::make_unique<engine::ThreadedEngine>(options);
    auto cluster = std::make_unique<engine::Cluster>(params, *app);
    const double setup_s = secondsSince(t_setup);
    const long build_rss_kb = currentRssKb() - rss_before;

    const auto t_run = Clock::now();
    const engine::RunResult result =
        seq ? seq->run(*cluster, *policy) : thr->run(*cluster, *policy);
    const double run_s = secondsSince(t_run);

    const auto t_hash = Clock::now();
    const std::uint64_t external_hash = cluster->stateHash();
    const double state_hash_s = secondsSince(t_hash);

    const Json counters = describeCounters(*cluster);

    const auto t_teardown = Clock::now();
    cluster.reset();
    seq.reset();
    thr.reset();
    const double teardown_s = secondsSince(t_teardown);

    Json j;
    j.num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("state_hash_s", state_hash_s)
        .num("teardown_s", teardown_s)
        .num("wall_s", setup_s + run_s + teardown_s)
        .num("build_rss_kb", static_cast<double>(build_rss_kb))
        .num("self_maxrss_kb",
             static_cast<double>(maxRssKb(RUSAGE_SELF)))
        .num("children_maxrss_kb",
             static_cast<double>(maxRssKb(RUSAGE_CHILDREN)))
        .str("external_hash", hex(external_hash))
        .obj("result", describeResult(result))
        .obj("counters", counters);
    return j;
}

/**
 * One repetition of the distributed workload. Cluster construction
 * happens inside DistributedEngine::run (in the coordinator and in
 * every worker), so it is counted in run_s; setup_s times one
 * stand-alone construction of the same cluster, after the run has
 * ended and its peak resident sets have been read.
 */
Json
runDistributed(const Config &config, const engine::ClusterParams &params,
               engine::EngineOptions options)
{
    auto app = makeApp(config);
    auto policy = core::parsePolicy(config.policy);

    const auto t_run = Clock::now();
    auto eng = std::make_unique<engine::DistributedEngine>(options);
    const engine::RunResult result = eng->run(params, *app, *policy);
    const double run_s = secondsSince(t_run);
    const auto t_teardown = Clock::now();
    eng.reset();
    const double teardown_s = secondsSince(t_teardown);

    const long self_maxrss = maxRssKb(RUSAGE_SELF);
    const long children_maxrss = maxRssKb(RUSAGE_CHILDREN);

    auto setup_app = makeApp(config);
    const auto t_setup = Clock::now();
    auto cluster = std::make_unique<engine::Cluster>(params, *setup_app);
    const double setup_s = secondsSince(t_setup);
    cluster.reset();

    Json j;
    j.num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("teardown_s", teardown_s)
        .num("wall_s", run_s + teardown_s)
        .num("self_maxrss_kb", static_cast<double>(self_maxrss))
        .num("children_maxrss_kb",
             static_cast<double>(children_maxrss))
        .obj("result", describeResult(result));
    return j;
}

int
benchMain(const Args &args)
{
    const std::string mode = args.getString("mode", "rep");
    if (mode == "decode") {
        std::printf("%s\n",
                    decodeFile(args.getString("file", "")).text().c_str());
        return 0;
    }

    const Config config = lookupConfig(args.getString("workload", ""));
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const auto workers =
        static_cast<std::size_t>(args.getInt("workers", 1));
    const bool traced = args.getInt("traced", 0) != 0;
    const auto params = makeClusterParams(config, seed);
    engine::EngineOptions options;
    options.numWorkers = workers;
    options.phaseStats = traced;
    options.recordTimeline = traced;

    Json out;
    out.str("mode", mode)
        .str("workload", config.name)
        .count("seed", seed)
        .count("workers", workers)
        .flag("traced", traced)
        .obj("skeleton", describeSkeleton(config, params));

    if (mode == "ref") {
        if (config.name == "is-adaptive")
            out.obj("run",
                    runInProcess(config, EngineKind::Sequential,
                                 harness::groundTruthSpec, params,
                                 options));
        else if (config.name == "cg-distributed")
            out.obj("run", runInProcess(config, EngineKind::Threaded,
                                        config.policy, params, options));
        else
            fatal("workload '%s' has no reference run",
                  config.name.c_str());
        std::printf("%s\n", out.text().c_str());
        return 0;
    }
    if (mode != "rep")
        fatal("unknown mode '%s' (rep|ref|decode)", mode.c_str());

    const std::string dir = args.getString("ckpt-dir", "");
    if (dir.empty())
        fatal("--ckpt-dir is required");
    options.checkpointEvery = config.checkpointEvery;
    options.checkpointDir = dir;
    options.checkpointKeepLast = 0; // every image is decoded and counted

    if (config.engine == EngineKind::Distributed)
        out.obj("run", runDistributed(config, params, options));
    else
        out.obj("run", runInProcess(config, config.engine, config.policy,
                                    params, options));

    std::string images;
    for (const auto &image : checkpointFiles(dir))
        images += (images.empty() ? "" : ", ") + decodeFile(image).text();
    out.raw("ckpts", "[" + images + "]");
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Logger::setVerbose(false);
    const Args args(argc, argv,
                    {"mode", "workload", "seed", "workers", "traced",
                     "ckpt-dir", "file"});
    try {
        return benchMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "aqbench: %s\n", e.what());
        return 3;
    }
}
