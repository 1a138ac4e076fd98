/**
 * @file
 * gpmbench: one end-to-end benchmark of the engine on both clocks.
 *
 *   gpmbench reference --workload W [--seed N] --out FILE
 *       Computes each query's correctness reference on its own
 *       (outside any timed phase): the other compiler style at one
 *       host thread with KernelMode::Merge, fault-free for
 *       degraded_steal, and for serve_mix a solo Engine::run of the
 *       same plan, whose modeled dump must match the served one.
 *
 *   gpmbench measure --workload W [--seed N] --seconds S --trace 0|1
 *                    --expect FILE [--spans FILE]
 *       Sets the workload up several times, then runs passes over
 *       its query list for S seconds and checks every result against
 *       FILE.  --trace 0 prints the end-to-end metrics; --trace 1 is
 *       the traced run: untraced passes, the same passes with spans
 *       around each call into a layer, the engine's exact counters
 *       read after each query, and the per-layer metrics.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when
 * every check passed, 1 when one failed, 2 on bad usage.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hh"
#include "core/engine.hh"
#include "core/kernels/kernels.hh"
#include "core/service/service.hh"
#include "engines/khuzdul_system.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "spans.hh"
#include "support/check.hh"
#include "support/rng.hh"
#include "workloads.hh"

#ifndef GPMBENCH_BUILD_TYPE
#define GPMBENCH_BUILD_TYPE "unknown"
#endif

namespace gpmbench
{

namespace
{

constexpr double kMiB = 1024.0 * 1024.0;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 9;

/** Fewest passes a measurement makes, whatever --seconds says. */
constexpr std::size_t kMinPasses = 3;

// ----------------------------------------------------------------
// Small helpers
// ----------------------------------------------------------------

unsigned
hostProcessors()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Linear-interpolation quantile (numpy's default), 0 <= q <= 1. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo])
        * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

std::string
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

/** Reset the process's RSS high-water mark; false if unsupported. */
bool
resetHighWater()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.close();
    return static_cast<bool>(out);
}

/** VmHWM in MB, or a negative value when unreadable. */
double
highWaterMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / kMiB;
    return -1;
}

std::vector<std::uint64_t>
traceTallies(const sim::CountingTraceSink &sink)
{
    std::vector<std::uint64_t> counts(sim::kNumPhaseEvents);
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
        counts[e] = sink.count(static_cast<sim::PhaseEvent>(e));
    return counts;
}

PlanOptions
planOptions(const Query &q)
{
    PlanOptions options;
    options.induced = q.induced;
    return options;
}

/** What KhuzdulSystem::compile does, for plans handed to a service
 *  or a bare Engine. */
ExtendPlan
compilePlan(const Workload &w, const Query &q, const GraphProfile &profile)
{
    return w.style == engines::CompilerStyle::GraphPi
        ? compileGraphPi(q.pattern, profile, planOptions(q))
        : compileAutomine(q.pattern, planOptions(q));
}

// ----------------------------------------------------------------
// Set-up: edge list -> first query ready
// ----------------------------------------------------------------

/** Everything a workload's passes run against. */
struct Resident
{
    std::unique_ptr<Graph> graph;
    std::unique_ptr<core::GraphContext> context;
    std::unique_ptr<engines::KhuzdulSystem> system;
    std::unique_ptr<core::QueryService> service;

    /** Tear down users before what they point into. */
    void
    clear()
    {
        service.reset();
        system.reset();
        context.reset();
        graph.reset();
    }
};

core::ServiceOptions
serviceOptions(const Workload &w, unsigned host_threads)
{
    core::ServiceOptions options;
    options.maxInFlight = w.clients;
    options.hostThreads = host_threads;
    return options;
}

/** One timed set-up; returns its wall time in ns. */
double
setUp(const Workload &w, const EdgeList &edges, SpanRecorder &spans,
      Resident &r)
{
    const std::uint64_t start = nowNs();
    const ScopedSpan root(spans, "setup");
    {
        const ScopedSpan s(spans, "GraphBuilder::build", root.id());
        GraphBuilder builder(w.recipe.vertices);
        for (const auto &[u, v] : edges)
            builder.addEdge(u, v);
        r.graph = std::make_unique<Graph>(builder.build());
    }
    {
        const ScopedSpan s(spans, "GraphContext::GraphContext",
                           root.id());
        r.context = std::make_unique<core::GraphContext>(
            *r.graph, w.config.graphSetup());
    }
    {
        const ScopedSpan s(spans, "GraphContext::ensureHubBitmaps",
                           root.id());
        r.context->ensureHubBitmaps();
    }
    {
        const ScopedSpan s(spans, "GraphContext::profile", root.id());
        r.context->profile();
    }
    if (w.served) {
        const ScopedSpan s(spans, "QueryService::QueryService",
                           root.id());
        r.service = std::make_unique<core::QueryService>(
            *r.context, serviceOptions(w, w.config.hostThreads));
    } else {
        const ScopedSpan s(spans, "KhuzdulSystem::KhuzdulSystem",
                           root.id());
        r.system = std::make_unique<engines::KhuzdulSystem>(
            *r.context, w.config.session(), w.style);
    }
    return static_cast<double>(nowNs() - start);
}

// ----------------------------------------------------------------
// Passes
// ----------------------------------------------------------------

struct QueryRecord
{
    Count count = 0;
    sim::RunStats stats;
    std::string modeled;
    std::vector<std::uint64_t> trace;
    double latencyNs = 0;
    bool failed = false;
    std::string error;
};

struct PassRecord
{
    double wallNs = 0;
    std::vector<QueryRecord> queries;
    /** Highest per-query (batch) or per-pass (served) VmHWM. */
    double highWaterMb = -1;
    unsigned peakInFlight = 0;
};

/** Run the batch query list once on @p system. */
PassRecord
runBatchPass(const Workload &w, engines::KhuzdulSystem &system,
             SpanRecorder &spans, bool track_memory,
             std::int64_t &next_query)
{
    PassRecord pass;
    const ScopedSpan pass_span(spans, "pass");
    for (const Query &q : w.queries) {
        QueryRecord rec;
        // Each query runs on a cold session, so its modeled dump is
        // the same pure function of the config on every pass.
        system.engine().clearCaches();
        system.resetStats();
        if (track_memory && resetHighWater())
            pass.highWaterMb = std::max(pass.highWaterMb, 0.0);
        const std::int64_t qid = next_query++;
        const std::uint64_t t0 = nowNs();
        {
            const ScopedSpan query_span(spans, "query", pass_span.id(),
                                        qid);
            try {
                ExtendPlan plan;
                {
                    const ScopedSpan s(spans, "KhuzdulSystem::compile",
                                       query_span.id(), qid);
                    plan = system.compile(q.pattern, planOptions(q));
                }
                const ScopedSpan s(spans, "Engine::run", query_span.id(),
                                   qid);
                rec.count = system.engine().run(plan);
            } catch (const std::exception &e) {
                rec.failed = true;
                rec.error = e.what();
            }
        }
        rec.latencyNs = static_cast<double>(nowNs() - t0);
        pass.wallNs += rec.latencyNs;
        if (track_memory && pass.highWaterMb >= 0)
            pass.highWaterMb = std::max(pass.highWaterMb, highWaterMb());
        rec.stats = system.stats();
        rec.modeled = rec.stats.toJson(false);
        rec.trace = traceTallies(system.engine().traceCounts());
        pass.queries.push_back(std::move(rec));
    }
    return pass;
}

/**
 * Serve the query list once through @p service with a closed loop of
 * w.clients virtual clients, in rounds: one generator thread submits
 * one query per client, observes each completion, and starts the next
 * round when the whole round has completed.  Rounds fix which queries
 * run together, so the co-runners of each query, and with them its
 * latency and the overlap of memory-heavy queries (peak RSS), do not
 * depend on host timing.  A query's latency runs from the start of
 * its plan compile to its observed completion; the pass wall from the
 * first compile to the last completion.
 */
PassRecord
runServedPass(const Workload &w, core::QueryService &service,
              const GraphProfile &profile, SpanRecorder &spans,
              bool track_memory, std::int64_t &next_query)
{
    PassRecord pass;
    if (track_memory && resetHighWater())
        pass.highWaterMb = 0;
    const std::size_t base = service.submitted();
    const std::size_t n = w.queries.size();
    std::vector<std::uint64_t> began(n), compiled(n);
    std::vector<double> latency(n);
    const std::int64_t first_query = next_query;
    next_query += static_cast<std::int64_t>(n);
    const ScopedSpan pass_span(spans, "pass");

    std::size_t issued = 0;
    const auto issue = [&]() {
        const std::size_t i = issued++;
        began[i] = nowNs();
        const ExtendPlan plan = compilePlan(w, w.queries[i], profile);
        compiled[i] = nowNs();
        const std::size_t id = service.submit(plan, w.config.session());
        KHUZDUL_REQUIRE(id == base + i, "service ids out of order");
        return i;
    };
    const std::uint64_t start = nowNs();
    while (issued < n) {
        std::vector<std::size_t> round; // query indices still running
        while (round.size() < w.clients && issued < n)
            round.push_back(issue());
        while (!round.empty()) {
            const auto done_it = std::find_if(
                round.begin(), round.end(), [&](std::size_t i) {
                    return service.finished(base + i);
                });
            if (done_it == round.end()) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(20));
                continue;
            }
            const std::size_t i = *done_it;
            round.erase(done_it);
            const std::uint64_t done = nowNs();
            latency[i] = static_cast<double>(done - began[i]);
            const std::int64_t qid =
                first_query + static_cast<std::int64_t>(i);
            const std::int64_t q_span = spans.add(
                "query", began[i], done, pass_span.id(), qid);
            spans.add("pattern::compile", began[i], compiled[i], q_span,
                      qid);
            spans.add("QueryService::submit->finished", compiled[i],
                      done, q_span, qid);
        }
    }
    pass.wallNs = static_cast<double>(nowNs() - start);
    service.wait();
    pass.peakInFlight = service.peakInFlight();
    if (track_memory && pass.highWaterMb >= 0)
        pass.highWaterMb = highWaterMb();
    for (std::size_t i = 0; i < n; ++i) {
        const core::QueryResult &res = service.result(base + i);
        QueryRecord rec;
        rec.count = res.count;
        rec.stats = res.stats;
        rec.modeled = res.modeledJson;
        rec.trace = res.traceCounts;
        rec.latencyNs = latency[i];
        rec.failed = res.failed;
        rec.error = res.error;
        pass.queries.push_back(std::move(rec));
    }
    return pass;
}

/** Every query's stats of one pass folded together. */
sim::RunStats
passStats(const PassRecord &pass)
{
    sim::RunStats sum;
    for (const QueryRecord &q : pass.queries)
        sum.accumulate(q.stats);
    return sum;
}

/** Runs passes of one workload over a resident set-up. */
struct PassRunner
{
    const Workload &w;
    Resident &r;
    std::int64_t nextQuery = 0;

    PassRecord
    run(SpanRecorder &spans, bool track_memory)
    {
        if (!w.served)
            return runBatchPass(w, *r.system, spans, track_memory,
                                nextQuery);
        // A fresh service per pass keeps its per-query result store
        // (and so RSS) independent of how many passes fit the run.
        if (!r.service)
            r.service = std::make_unique<core::QueryService>(
                *r.context, serviceOptions(w, w.config.hostThreads));
        PassRecord pass = runServedPass(w, *r.service,
                                        r.context->profile(), spans,
                                        track_memory, nextQuery);
        r.service.reset();
        return pass;
    }

    /** Passes until @p seconds have elapsed (at least @p min). */
    std::vector<PassRecord>
    runFor(double seconds, std::size_t min, SpanRecorder &spans,
           bool track_memory)
    {
        std::vector<PassRecord> passes;
        const std::uint64_t start = nowNs();
        while (passes.size() < min
               || static_cast<double>(nowNs() - start) < seconds * 1e9)
            passes.push_back(run(spans, track_memory));
        return passes;
    }
};

// ----------------------------------------------------------------
// Correctness
// ----------------------------------------------------------------

/** Per-query reference: exact count, and (served) modeled hash. */
struct Reference
{
    std::vector<Count> counts;
    std::vector<std::string> modeledHashes;
};

bool
readReference(const std::string &path, std::size_t queries,
              Reference &ref)
{
    std::ifstream in(path);
    std::string key;
    std::size_t index = 0;
    ref.counts.assign(queries, 0);
    ref.modeledHashes.assign(queries, "");
    std::vector<bool> seen(queries, false);
    while (in >> key >> index) {
        if (index >= queries)
            return false;
        if (key == "count") {
            in >> ref.counts[index];
            seen[index] = true;
        } else if (key == "modeled") {
            in >> ref.modeledHashes[index];
        } else {
            return false;
        }
    }
    return std::all_of(seen.begin(), seen.end(),
                       [](bool b) { return b; });
}

/** Checks every query of every pass; counts failed queries. */
struct Checker
{
    const Workload &w;
    const Reference &ref;
    /** Modeled dump of each query index, fixed by its first run. */
    std::vector<std::string> modeled{};
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems{};

    void
    fail(const std::string &what)
    {
        if (problems.size() < 20)
            problems.push_back(what);
    }

    void
    check(const std::vector<PassRecord> &passes)
    {
        if (modeled.empty())
            modeled.resize(w.queries.size());
        for (const PassRecord &pass : passes) {
            std::size_t bad_queries = 0;
            for (std::size_t i = 0; i < pass.queries.size(); ++i) {
                const QueryRecord &q = pass.queries[i];
                const std::string &name = w.queries[i].name;
                ++attempted;
                bool bad = false;
                if (q.failed) {
                    fail(name + " failed: " + q.error);
                    bad = true;
                } else if (q.count != ref.counts[i]) {
                    fail(name + ": count " + std::to_string(q.count)
                         + " != reference "
                         + std::to_string(ref.counts[i]));
                    bad = true;
                }
                if (!ref.modeledHashes[i].empty()
                    && fnv1a(q.modeled) != ref.modeledHashes[i]) {
                    fail(name + ": modeled dump differs from the solo "
                                "Engine::run");
                    bad = true;
                }
                if (modeled[i].empty()) {
                    modeled[i] = q.modeled;
                } else if (q.modeled != modeled[i]) {
                    fail(name + ": modeled dump differs between runs");
                    bad = true;
                }
                bad_queries += bad ? 1 : 0;
            }
            if (w.expectFaultPath && !exercisesFaultPath(pass))
                bad_queries = pass.queries.size();
            failed += bad_queries;
        }
    }

    /** Whether a pass crashed a unit, stole a chunk and retried a
     *  batch.  A pass that did not no longer exercises the layers its
     *  workload is for, and all its queries count as failed. */
    bool
    exercisesFaultPath(const PassRecord &pass)
    {
        const sim::RunStats sum = passStats(pass);
        std::uint64_t retried = 0;
        for (const sim::NodeStats &n : sum.nodes)
            retried += n.faultsRetried;
        if (sum.totalUnitCrashes() >= 1 && sum.totalChunksStolen() > 0
            && retried > 0)
            return true;
        fail("vacuous pass: crashes "
             + std::to_string(sum.totalUnitCrashes()) + ", stolen chunks "
             + std::to_string(sum.totalChunksStolen()) + ", retries "
             + std::to_string(retried));
        return false;
    }
};

// ----------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

std::string
formatNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ")
        + (correct ? "true" : "false")
        + ", \"attempted\": " + std::to_string(attempted)
        + ", \"failed\": " + std::to_string(failed)
        + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", " : "") + std::string("\"") + metrics[i].name
            + "\": {\"value\": " + formatNumber(metrics[i].value)
            + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::vector<double>
passWalls(const std::vector<PassRecord> &passes)
{
    std::vector<double> walls;
    for (const PassRecord &p : passes)
        walls.push_back(p.wallNs);
    return walls;
}

double
makespanMs(const PassRecord &pass)
{
    double sum = 0;
    for (const QueryRecord &q : pass.queries)
        sum += q.stats.makespanNs();
    return sum / 1e6;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** Sum of one NodeStats field over all units. */
template <typename T>
double
sumOf(const sim::RunStats &stats, T sim::NodeStats::*field)
{
    double total = 0;
    for (const sim::NodeStats &n : stats.nodes)
        total += static_cast<double>(n.*field);
    return total;
}

/** Largest value of one NodeStats field over all units. */
template <typename T>
double
maxOf(const sim::RunStats &stats, T sim::NodeStats::*field)
{
    double most = 0;
    for (const sim::NodeStats &n : stats.nodes)
        most = std::max(most, static_cast<double>(n.*field));
    return most;
}

/** Trace events of kind @p e over one pass. */
double
eventsOf(const PassRecord &pass, sim::PhaseEvent e)
{
    double total = 0;
    for (const QueryRecord &q : pass.queries)
        total += static_cast<double>(q.trace[static_cast<std::size_t>(e)]);
    return total;
}

// ----------------------------------------------------------------
// Traced-run extras
// ----------------------------------------------------------------

/** Times the public kernel API on N(u) ∩ N(v) for a seeded sample
 *  of edges; checks each count against the reference merge. */
struct KernelReplay
{
    double nsPerItem = 0;
    std::uint64_t items = 0;
    std::uint64_t setOps = 0;
    bool ok = true;
};

KernelReplay
replayKernels(const Graph &g, std::uint64_t seed)
{
    KernelReplay out;
    Rng rng(seed ^ 0x6b65726e656cULL);
    std::vector<std::pair<VertexId, VertexId>> sample;
    while (sample.size() < 20'000) {
        const auto u = static_cast<VertexId>(
            rng.nextBounded(g.numVertices()));
        if (g.degree(u) == 0)
            continue;
        const auto nbrs = g.neighbors(u);
        sample.emplace_back(u, nbrs[rng.nextBounded(nbrs.size())]);
    }
    std::vector<Count> expect;
    for (const auto &[u, v] : sample) {
        Count c = 0;
        core::intersectCount(g.neighbors(u), g.neighbors(v), c);
        expect.push_back(c);
    }
    core::KernelDispatcher dispatcher(core::KernelMode::Auto, &g);
    const std::uint64_t start = nowNs();
    while (nowNs() - start < 200'000'000ULL) {
        for (std::size_t i = 0; i < sample.size(); ++i) {
            const auto [u, v] = sample[i];
            Count c = 0;
            out.items += dispatcher.intersectCount(
                core::ListRef(g.neighbors(u), u),
                core::ListRef(g.neighbors(v), v), c);
            out.ok = out.ok && c == expect[i];
        }
        out.setOps += sample.size();
    }
    out.nsPerItem = ratio(static_cast<double>(nowNs() - start),
                          static_cast<double>(out.items));
    return out;
}

/** Wall of one pass at a single host thread (parallel.speedup). */
double
singleThreadPassNs(const Workload &w, Resident &r)
{
    Workload single = w;
    single.config.hostThreads = 1;
    SpanRecorder off(false);
    std::int64_t next = 0;
    if (!w.served) {
        engines::KhuzdulSystem system(*r.context, single.config.session(),
                                      w.style);
        return runBatchPass(single, system, off, false, next).wallNs;
    }
    core::QueryService service(*r.context, serviceOptions(single, 1));
    return runServedPass(single, service, r.context->profile(), off,
                         false, next)
        .wallNs;
}

/** Solo Engine::run wall of each served query's shape, run once
 *  per shape (latency_over_solo). */
std::vector<double>
soloRunNs(const Workload &w, Resident &r)
{
    std::map<std::string, double> by_shape;
    std::vector<double> solo;
    for (const Query &q : w.queries) {
        auto it = by_shape.find(q.name);
        if (it == by_shape.end()) {
            const ExtendPlan plan =
                compilePlan(w, q, r.context->profile());
            core::Engine engine(*r.context, w.config.session());
            const std::uint64_t t0 = nowNs();
            engine.run(plan);
            it = by_shape
                     .emplace(q.name,
                              static_cast<double>(nowNs() - t0))
                     .first;
        }
        solo.push_back(it->second);
    }
    return solo;
}

// ----------------------------------------------------------------
// Modes
// ----------------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10;
    bool trace = false;
    std::string expect;
    std::string out;
    std::string spans;
};

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "gpmbench: %s\n"
                 "usage: gpmbench reference --workload W [--seed N] "
                 "--out FILE\n"
                 "       gpmbench measure --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1] --expect FILE "
                 "[--spans FILE]\n",
                 why.c_str());
    return 2;
}

int
reference(const Args &args, const Workload &w)
{
    const std::uint64_t seed = args.seedGiven ? args.seed : w.recipe.seed;
    const EdgeList edges = rmatEdges(w.recipe, seed);
    GraphBuilder builder(w.recipe.vertices);
    for (const auto &[u, v] : edges)
        builder.addEdge(u, v);
    const Graph g = builder.build();
    // The benchmark's graph must be the recipe's, relabeled.
    const Graph recipe = gen::rmat(w.recipe.vertices, w.recipe.edges,
                                   w.recipe.a, w.recipe.b, w.recipe.c,
                                   w.recipe.seed);
    const std::vector<VertexId> ids = seededIds(w.recipe, seed);
    bool same = recipe.numVertices() == g.numVertices()
        && recipe.numArcs() == g.numArcs();
    std::vector<VertexId> mapped;
    for (VertexId v = 0; same && v < g.numVertices(); ++v) {
        mapped.clear();
        for (const VertexId u : recipe.neighbors(v))
            mapped.push_back(ids[u]);
        std::sort(mapped.begin(), mapped.end());
        same = std::ranges::equal(g.neighbors(ids[v]), mapped);
    }
    if (!same) {
        std::fprintf(stderr, "gpmbench: graph is not the recipe's "
                             "under the seeded relabeling\n");
        return 1;
    }

    std::ofstream out(args.out);
    if (w.served) {
        core::GraphContext context(g, w.config.graphSetup());
        core::SessionConfig session = w.config.session();
        session.hostThreads = 1;
        session.kernelMode = core::KernelMode::Merge;
        // Compiled once per shape; repeated shapes share the result.
        std::map<std::string, std::pair<Count, std::string>> solo;
        for (std::size_t i = 0; i < w.queries.size(); ++i) {
            const Query &q = w.queries[i];
            auto it = solo.find(q.name);
            if (it == solo.end()) {
                core::Engine engine(context, session);
                const Count c =
                    engine.run(compilePlan(w, q, context.profile()));
                it = solo.emplace(q.name,
                                  std::make_pair(
                                      c, fnv1a(engine.stats().toJson(
                                             false))))
                         .first;
            }
            out << "count " << i << " " << it->second.first << "\n"
                << "modeled " << i << " " << it->second.second << "\n";
        }
    } else {
        core::EngineConfig config = w.config;
        config.hostThreads = 1;
        config.kernelMode = core::KernelMode::Merge;
        config.faults = sim::FaultPlan{};
        config.stealEnabled = false;
        engines::KhuzdulSystem system(g, config, otherStyle(w.style));
        for (std::size_t i = 0; i < w.queries.size(); ++i) {
            const Query &q = w.queries[i];
            out << "count " << i << " "
                << system.count(q.pattern, planOptions(q)) << "\n";
        }
    }
    out.close();
    if (!out) {
        std::fprintf(stderr, "gpmbench: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    return 0;
}

/** The end-to-end metrics: passes for @p seconds, tracing off. */
std::vector<Metric>
endToEndMetrics(const std::vector<double> &setups, PassRunner &runner,
                Checker &checker, double seconds)
{
    SpanRecorder off(false);
    const std::vector<PassRecord> passes =
        runner.runFor(seconds, kMinPasses, off, false);
    checker.check(passes);
    std::vector<double> latencies;
    double busy = 0;
    for (const PassRecord &p : passes) {
        busy += p.wallNs;
        for (const QueryRecord &q : p.queries)
            latencies.push_back(q.latencyNs);
    }
    std::printf("samples: setup_s median of %zu set-ups; wall_s median of "
                "%zu passes; query_p50_ms/p90_ms over %zu query "
                "latencies (%zu beyond p90)\n",
                setups.size(), passes.size(), latencies.size(),
                latencies.size() / 10);
    return {
        {"setup_s", median(setups) / 1e9, "s"},
        {"wall_s", median(passWalls(passes)) / 1e9, "s"},
        {"queries_per_s",
         ratio(static_cast<double>(latencies.size()), busy / 1e9), "1/s"},
        {"query_p50_ms", quantile(latencies, 0.5) / 1e6, "ms"},
        {"query_p90_ms", quantile(latencies, 0.9) / 1e6, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"makespan_ms", makespanMs(passes.front()), "ms"},
    };
}

/**
 * The traced run's per-layer metrics: untraced and traced passes in
 * turn for --seconds (at least two of each), then a one-thread pass,
 * solo runs (served workloads) and the kernel replay.  Counters come
 * from the first traced pass; host times are medians.
 */
std::vector<Metric>
tracedMetrics(const Workload &w, Resident &r, PassRunner &runner,
              Checker &checker, SpanRecorder &spans, const Args &args,
              std::uint64_t seed)
{
    // Untraced and traced passes alternate, so host drift during the
    // run weighs on both sides of trace.overhead_ratio alike.
    SpanRecorder off(false);
    std::vector<PassRecord> plain;
    std::vector<PassRecord> traced;
    const std::uint64_t start = nowNs();
    while (plain.size() < 2
           || static_cast<double>(nowNs() - start) < args.seconds * 1e9) {
        plain.push_back(runner.run(off, false));
        traced.push_back(runner.run(spans, true));
    }
    checker.check(plain);
    checker.check(traced);
    const double single_ns = singleThreadPassNs(w, r);
    const KernelReplay replay = replayKernels(*r.graph, seed);
    if (!replay.ok) {
        ++checker.failed;
        checker.fail("kernel replay count differs from merge");
    }

    using N = sim::NodeStats;
    const sim::RunStats t = passStats(traced.front());
    const auto calls = [&](core::KernelKind k) {
        double c = 0;
        for (const N &n : t.nodes)
            c += static_cast<double>(
                n.kernelCalls[static_cast<std::size_t>(k)]);
        return c;
    };
    double set_ops = 0;
    for (std::size_t k = 0; k < core::kNumKernelKinds; ++k)
        set_ops += calls(static_cast<core::KernelKind>(k));
    const double items = sumOf(t, &N::intersectionItems);
    const double embeddings = static_cast<double>(t.totalEmbeddings());
    const double h_hits = sumOf(t, &N::horizontalHits);
    const double h_drops = sumOf(t, &N::horizontalDrops);
    const double unit_mean = items / static_cast<double>(t.nodes.size());
    const double graph_mb =
        static_cast<double>(r.graph->sizeBytes()) / kMiB;

    std::map<std::string, std::vector<double>> span_ns;
    for (const Span &s : spans.spans())
        span_ns[s.name].push_back(static_cast<double>(s.durationNs()));
    const auto span_ms = [&](const std::string &name) {
        return median(span_ns[name]) / 1e6;
    };
    std::vector<double> run_ns;
    double high_water = -1;
    unsigned in_flight = 0;
    for (const PassRecord &p : traced) {
        run_ns.push_back(passStats(p).hostWallNs);
        high_water = std::max(high_water, p.highWaterMb);
        in_flight = std::max(in_flight, p.peakInFlight);
    }
    const double plain_wall = median(passWalls(plain));
    const double traced_wall = median(passWalls(traced));

    double latency_over_solo = 0;
    double cross_hit_rate = 0;
    if (w.served) {
        const std::vector<double> solo = soloRunNs(w, r);
        std::vector<double> over;
        for (const PassRecord &p : traced)
            for (std::size_t i = 0; i < p.queries.size(); ++i)
                over.push_back(ratio(p.queries[i].latencyNs, solo[i]));
        latency_over_solo = median(over);
        cross_hit_rate =
            ratio(static_cast<double>(r.context->crossQueryHits()),
                  static_cast<double>(r.context->crossQueryProbes()));
        std::printf("bases: service.latency_over_solo over solo walls of "
                    "%.1f ms (median over %zu queries); "
                    "service.cross_query_hit_rate over %llu probes\n",
                    median(solo) / 1e6, solo.size(),
                    static_cast<unsigned long long>(
                        r.context->crossQueryProbes()));
    } else {
        std::printf("service.* are 0: this workload is not served\n");
    }

    std::vector<Metric> metrics = {
        {"context.load_ms", span_ms("GraphBuilder::build"), "ms"},
        {"context.partition_ms", span_ms("GraphContext::GraphContext"),
         "ms"},
        {"context.hub_bitmaps_ms",
         span_ms("GraphContext::ensureHubBitmaps"), "ms"},
        {"context.profile_ms", span_ms("GraphContext::profile"), "ms"},
        {"context.graph_mb", graph_mb, "MB"},
        {"pattern.compile_ms",
         span_ms(w.served ? "pattern::compile" : "KhuzdulSystem::compile"),
         "ms"},
        {"engine.run_ms", median(run_ns) / 1e6, "ms"},
        {"engine.chunks", sumOf(t, &N::chunksProcessed), "count"},
        {"engine.peak_chunk_kb", maxOf(t, &N::peakChunkBytes) / 1024.0,
         "KB"},
    };
    if (high_water >= 0) {
        metrics.push_back({"engine.query_peak_rss_mb", high_water, "MB"});
        metrics.push_back({"engine.rss_over_graph",
                           ratio(high_water, graph_mb), "ratio"});
    } else {
        std::printf("engine.query_peak_rss_mb missing: "
                    "/proc/self/clear_refs reset unavailable\n");
    }
    const PassRecord &first = traced.front();
    const std::vector<Metric> rest = {
        {"trace.cache_probe_events",
         eventsOf(first, sim::PhaseEvent::CacheHit)
             + eventsOf(first, sim::PhaseEvent::CacheMiss),
         "count"},
        {"kernels.set_ops", set_ops, "count"},
        {"kernels.items", items, "count"},
        {"kernels.bitmap_share",
         ratio(calls(core::KernelKind::Bitmap), set_ops), "fraction"},
        {"kernels.simd_share",
         ratio(calls(core::KernelKind::SimdMerge)
                   + calls(core::KernelKind::SimdGallop),
               set_ops),
         "fraction"},
        {"kernels.replay_ns_per_item", replay.nsPerItem, "ns/item"},
        {"extender.embeddings", embeddings, "count"},
        {"extender.items_per_embedding", ratio(items, embeddings),
         "ratio"},
        {"extender.vertical_reuses", sumOf(t, &N::verticalReuses),
         "count"},
        {"provider.remote_lists", sumOf(t, &N::listsFetchedRemote),
         "count"},
        {"provider.local_lists", sumOf(t, &N::listsServedLocal), "count"},
        {"cache.hit_rate", t.staticCacheHitRate(), "fraction"},
        {"horizontal.hits", h_hits, "count"},
        {"horizontal.drop_share", ratio(h_drops, h_hits + h_drops),
         "fraction"},
        {"modeled.cache_ms", t.totalCacheNs() / 1e6, "ms"},
        {"fabric.mb", static_cast<double>(t.totalBytesSent()) / kMiB,
         "MB"},
        {"fabric.messages", static_cast<double>(t.totalMessages()),
         "count"},
        {"circulant.hidden_comm_share",
         1.0 - ratio(t.totalCommExposedNs(), t.totalCommTotalNs()),
         "fraction"},
        {"modeled.comm_exposed_ms", t.totalCommExposedNs() / 1e6, "ms"},
        {"modeled.compute_ms", t.totalComputeNs() / 1e6, "ms"},
        {"modeled.scheduler_ms", t.totalSchedulerNs() / 1e6, "ms"},
        {"parallel.speedup", ratio(single_ns, plain_wall), "ratio"},
        {"parallel.unit_imbalance",
         ratio(maxOf(t, &N::intersectionItems), unit_mean), "ratio"},
        {"service.latency_over_solo", latency_over_solo, "ratio"},
        {"service.peak_in_flight", static_cast<double>(in_flight),
         "count"},
        {"service.cross_query_hit_rate", cross_hit_rate, "fraction"},
        {"faults.injected", static_cast<double>(t.totalFaultsInjected()),
         "count"},
        {"faults.retried", sumOf(t, &N::faultsRetried), "count"},
        {"faults.chunks_replayed",
         static_cast<double>(t.totalChunksReplayed()), "count"},
        {"faults.recovery_ms", t.totalRecoveryNs() / 1e6, "ms"},
        {"recovery.crashes", static_cast<double>(t.totalUnitCrashes()),
         "count"},
        {"recovery.chunks_adopted",
         static_cast<double>(t.totalChunksAdopted()), "count"},
        {"recovery.checkpoint_ms", t.totalCheckpointOverheadNs() / 1e6,
         "ms"},
        {"steal.chunks", static_cast<double>(t.totalChunksStolen()),
         "count"},
        {"steal.overhead_ms", t.totalStealOverheadNs() / 1e6, "ms"},
        {"trace.overhead_ratio", ratio(traced_wall, plain_wall), "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());

    std::printf("samples: %zu untraced + %zu traced passes; context.* "
                "medians of %zu set-ups; kernel replay %llu set ops\n",
                plain.size(), traced.size(), span_ns["setup"].size(),
                static_cast<unsigned long long>(replay.setOps));
    std::printf("bases: engine.rss_over_graph over context.graph_mb "
                "%.4f MB; parallel.speedup = %.1f ms at 1 thread / %.1f "
                "ms at %u threads; parallel.unit_imbalance over a mean of "
                "%.0f items per unit; trace.overhead_ratio = %.1f ms "
                "traced / %.1f ms untraced\n",
                graph_mb, single_ns / 1e6, plain_wall / 1e6,
                w.config.hostThreads, unit_mean, traced_wall / 1e6,
                plain_wall / 1e6);
    if (!args.spans.empty()) {
        if (spans.write(args.spans))
            std::printf("spans: %zu written to %s\n",
                        spans.spans().size(), args.spans.c_str());
        else
            std::printf("spans: cannot write %s\n", args.spans.c_str());
    }
    return metrics;
}

int
measure(const Args &args, const Workload &w)
{
    Reference ref;
    if (!readReference(args.expect, w.queries.size(), ref))
        return usage("unreadable reference file " + args.expect);
    const std::uint64_t seed = args.seedGiven ? args.seed : w.recipe.seed;
    const EdgeList edges = rmatEdges(w.recipe, seed);

    SpanRecorder spans(args.trace);
    std::vector<double> setups;
    Resident r;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        r.clear();
        setups.push_back(setUp(w, edges, spans, r));
    }
    const Graph &g = *r.graph;

    std::printf("workload %s  seed %llu  nproc %u  build %s  "
                "simdAvailable %s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                w.config.hostThreads, GPMBENCH_BUILD_TYPE,
                core::simdAvailable() ? "true" : "false");
    std::printf("graph %s-recipe: |V| %u  |E| %llu  max degree %llu  "
                "CSR bytes %llu\n",
                w.recipe.abbr.c_str(), g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()),
                static_cast<unsigned long long>(g.maxDegree()),
                static_cast<unsigned long long>(g.sizeBytes()));

    PassRunner runner{w, r};
    Checker checker{w, ref};
    const std::vector<Metric> metrics = args.trace
        ? tracedMetrics(w, r, runner, checker, spans, args, seed)
        : endToEndMetrics(setups, runner, checker, args.seconds);
    for (const std::string &p : checker.problems)
        std::printf("FAIL: %s\n", p.c_str());
    std::printf("error_rate %.6f (%llu failed of %llu queries)\n",
                ratio(static_cast<double>(checker.failed),
                      static_cast<double>(checker.attempted)),
                static_cast<unsigned long long>(checker.failed),
                static_cast<unsigned long long>(checker.attempted));
    const bool correct = checker.failed == 0;
    printResult(correct, checker.attempted, checker.failed, metrics);
    return correct ? 0 : 1;
}

int
runMain(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        return usage("missing mode");
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
                args.seedGiven = true;
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                args.trace = value == "1";
            } else if (key == "--expect") {
                args.expect = value;
            } else if (key == "--out") {
                args.out = value;
            } else if (key == "--spans") {
                args.spans = value;
            } else {
                return usage("unknown option " + key);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + key);
        }
    }
    const Workload w = workloadByName(args.workload, hostProcessors());
    if (w.name.empty())
        return usage("unknown workload '" + args.workload + "'");
    if (args.mode == "reference" && !args.out.empty())
        return reference(args, w);
    if (args.mode == "measure" && !args.expect.empty())
        return measure(args, w);
    return usage("bad mode or missing --out/--expect");
}

} // namespace

} // namespace gpmbench

int
main(int argc, char **argv)
{
    try {
        return gpmbench::runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpmbench: %s\n", e.what());
        return 1;
    }
}
