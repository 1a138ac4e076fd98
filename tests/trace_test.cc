/**
 * @file
 * Phase-event tracing tests: the sink implementations in isolation,
 * the cross-check between the engine's internal event tallies and
 * its RunStats counters, the observation-only guarantee (a run is
 * bit-exact with tracing enabled or disabled, and the per-unit
 * tallies match the recorded stream), the spilled stream matching
 * the in-memory one, and a whole-process peak-RSS gate.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/engine.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

core::EngineConfig
traceConfig()
{
    core::EngineConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(4);
    config.cluster.socketsPerNode = 1;
    config.chunkBytes = 64 << 10;
    config.cacheDegreeThreshold = 8;
    return config;
}

TEST(Trace, PhaseEventNamesAreStable)
{
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::ChunkOpen),
                 "chunk_open");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::FetchBatchIssued),
                 "fetch_batch_issued");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::CacheMiss),
                 "cache_miss");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::KernelDispatch),
                 "kernel_dispatch");
}

TEST(Trace, CountingSinkTalliesPerEvent)
{
    sim::CountingTraceSink sink;
    sink.emit({sim::PhaseEvent::ChunkOpen, 0, 0, 10, 0});
    sink.emit({sim::PhaseEvent::ChunkOpen, 1, 2, 5, 0});
    sink.emit({sim::PhaseEvent::CacheHit, 0, 0, 42, 0});
    EXPECT_EQ(sink.count(sim::PhaseEvent::ChunkOpen), 2u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 15u);
    EXPECT_EQ(sink.count(sim::PhaseEvent::CacheHit), 1u);
    EXPECT_EQ(sink.total(), 3u);
    sink.reset();
    EXPECT_EQ(sink.total(), 0u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 0u);
}

TEST(Trace, JsonLinesSinkFormat)
{
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    sink.emit({sim::PhaseEvent::FetchBatchIssued, 3, 2, 77, 5});
    EXPECT_EQ(out.str(),
              "{\"event\":\"fetch_batch_issued\",\"unit\":3,"
              "\"level\":2,\"value\":77,\"aux\":5}\n");
}

TEST(Trace, TeeFansOutToOptionalSecondary)
{
    sim::CountingTraceSink primary;
    sim::CountingTraceSink secondary;
    sim::TeeTraceSink tee(primary);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(&secondary);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(nullptr);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    EXPECT_EQ(primary.count(sim::PhaseEvent::ExtendStart), 3u);
    EXPECT_EQ(secondary.count(sim::PhaseEvent::ExtendStart), 1u);
}

TEST(Trace, EngineEventsCrossCheckRunStats)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::clique(4), {}));

    const sim::CountingTraceSink &t = engine.traceCounts();
    std::uint64_t chunks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &node : engine.stats().nodes) {
        chunks += node.chunksProcessed;
        hits += node.staticCacheHits;
        misses += node.staticCacheMisses;
    }
    EXPECT_GT(chunks, 0u);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkOpen), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkClose), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendStart), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendEnd), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::CacheHit), hits);
    EXPECT_EQ(t.count(sim::PhaseEvent::CacheMiss), misses);
    // One socket per node: every issued batch crosses the network,
    // so issued events match the message count, and the issued
    // payload sum matches the bytes on the wire.
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalMessages());
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchCompleted),
              t.count(sim::PhaseEvent::FetchBatchIssued));
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalBytesSent());
    // Kernel-dispatch events carry per-chunk call deltas whose sum
    // must equal the kernel-call totals accumulated in RunStats.
    std::uint64_t kernel_calls = 0;
    for (const auto &node : engine.stats().nodes)
        for (const std::uint64_t calls : node.kernelCalls)
            kernel_calls += calls;
    EXPECT_GT(kernel_calls, 0u);
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::KernelDispatch),
              kernel_calls);
}

/** traceConfig() plus a degraded node, a unit crash and stealing,
 *  so recovery and steal events follow the unit segments. */
core::EngineConfig
faultyConfig(unsigned threads)
{
    core::EngineConfig config = traceConfig();
    config.chunkBytes = 4 << 10;
    config.hostThreads = threads;
    config.stealEnabled = true;
    config.stealBacklogThresholdNs = 2.0e3;
    config.faults.add("degrade:3-*:factor=6:from=0");
    config.faults.add("crash:1:level=1:chunk=1");
    return config;
}

/** The JSON-lines stream of one run, each unit holding
 *  @p block_records records in memory before it spills. */
std::string
tracedStream(const Graph &g, const core::EngineConfig &config,
             const ExtendPlan &plan, std::size_t block_records)
{
    core::Engine engine(g, config, block_records);
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    engine.setTraceSink(&sink);
    engine.run(plan);
    return out.str();
}

TEST(Trace, UnitSinkTalliesOrRecords)
{
    const sim::TraceRecord hit{sim::PhaseEvent::CacheHit, 2, 1, 7, 0};
    const sim::TraceRecord open{sim::PhaseEvent::ChunkOpen, 2, 1, 5, 0};
    sim::BufferingTraceSink unit(2);
    sim::CountingTraceSink counts;
    std::ostringstream out;
    sim::JsonLinesTraceSink stream(out);

    // Tallying: nothing is recorded, the tallies add up.
    unit.emit(hit);
    unit.emit(open);
    unit.drainInto(counts, stream);
    EXPECT_TRUE(out.str().empty());
    EXPECT_EQ(counts.total(), 2u);
    EXPECT_EQ(counts.valueSum(sim::PhaseEvent::CacheHit), 7u);

    // Recording: five records through a two-record block spill
    // twice and replay in arrival order.
    unit.clear(true);
    std::ostringstream expected;
    sim::JsonLinesTraceSink reference(expected);
    for (const auto &r : {hit, open, hit, hit, open}) {
        unit.emit(r);
        reference.emit(r);
    }
    unit.drainInto(counts, stream);
    EXPECT_EQ(out.str(), expected.str());
    EXPECT_EQ(counts.total(), 2u);

    // A drain keeps the mode; clear() drops what is buffered and
    // returns to tallying.
    unit.emit(hit);
    unit.clear();
    unit.emit(open);
    unit.drainInto(counts, stream);
    EXPECT_EQ(out.str(), expected.str());
    EXPECT_EQ(counts.count(sim::PhaseEvent::ChunkOpen), 2u);
}

TEST(Trace, TracingIsObservationOnly)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    // Tallying units (no sink) against recording units (sink), on
    // a healthy and a crash + steal + degrade run at 1 and 4 threads.
    for (const bool faulty : {false, true}) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(testing::Message() << "faulty=" << faulty
                                            << " threads=" << threads);
            core::EngineConfig config =
                faulty ? faultyConfig(threads) : traceConfig();
            config.hostThreads = threads;

            core::Engine plain(g, config);
            const Count count_plain = plain.run(plan);

            core::Engine traced(g, config);
            std::ostringstream out;
            sim::JsonLinesTraceSink sink(out);
            traced.setTraceSink(&sink);
            const Count count_traced = traced.run(plan);

            EXPECT_EQ(count_traced, count_plain);
            EXPECT_FALSE(out.str().empty());
            // Bit-exact stats: attaching a sink must not perturb the
            // run.
            EXPECT_EQ(traced.stats().toJson(false),
                      plain.stats().toJson(false));
            EXPECT_DOUBLE_EQ(traced.stats().makespanNs(),
                             plain.stats().makespanNs());
            EXPECT_DOUBLE_EQ(traced.stats().totalComputeNs(),
                             plain.stats().totalComputeNs());
            EXPECT_DOUBLE_EQ(traced.stats().totalCacheNs(),
                             plain.stats().totalCacheNs());
            EXPECT_EQ(traced.stats().totalBytesSent(),
                      plain.stats().totalBytesSent());
            EXPECT_EQ(traced.stats().totalMessages(),
                      plain.stats().totalMessages());
            EXPECT_EQ(traced.stats().totalEmbeddings(),
                      plain.stats().totalEmbeddings());
            for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
                const auto event = static_cast<sim::PhaseEvent>(e);
                EXPECT_EQ(traced.traceCounts().count(event),
                          plain.traceCounts().count(event))
                    << sim::phaseEventName(event);
                EXPECT_EQ(traced.traceCounts().valueSum(event),
                          plain.traceCounts().valueSum(event))
                    << sim::phaseEventName(event);
            }
            if (faulty) {
                const sim::CountingTraceSink &t = plain.traceCounts();
                EXPECT_EQ(t.count(sim::PhaseEvent::UnitCrashed), 1u);
                EXPECT_GT(t.count(sim::PhaseEvent::ChunkAdopted), 0u);
                EXPECT_GT(t.count(sim::PhaseEvent::StealIssued), 0u);
            }
        }
    }
}

TEST(Trace, SpilledStreamMatchesInMemoryStream)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const std::size_t never_spills =
        std::numeric_limits<std::size_t>::max();
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const core::EngineConfig config = faultyConfig(threads);
        const std::string in_memory =
            tracedStream(g, config, plan, never_spills);
        EXPECT_EQ(tracedStream(g, config, plan, 3), in_memory);

        // Many spills per unit, and the post-barrier adoption and
        // steal events all follow the unit segments.
        std::istringstream lines(in_memory);
        std::string line;
        std::size_t count = 0;
        std::size_t post_merge = 0;
        bool unit_segment_after_merge = false;
        while (std::getline(lines, line)) {
            ++count;
            const bool merge_event =
                line.find("\"chunk_adopted\"") != std::string::npos
                || line.find("\"steal_") != std::string::npos;
            if (merge_event)
                ++post_merge;
            else if (post_merge > 0)
                unit_segment_after_merge = true;
        }
        // Four units: over ten three-record spills each on average.
        EXPECT_GT(count, 4u * 10 * 3);
        EXPECT_GT(post_merge, 0u);
        EXPECT_FALSE(unit_segment_after_merge);
    }
}

TEST(Trace, ResetStatsClearsEventCounts)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_GT(engine.traceCounts().total(), 0u);
    engine.resetStats();
    EXPECT_EQ(engine.traceCounts().total(), 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KHUZDUL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KHUZDUL_TEST_SANITIZED 1
#endif
#endif
#ifndef KHUZDUL_TEST_SANITIZED
#define KHUZDUL_TEST_SANITIZED 0
#endif

/** A "Vm...:" field of /proc/self/status in bytes, or 0. */
std::uint64_t
procStatusBytes(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(field + ":", 0) == 0)
            return std::stoull(line.substr(field.size() + 1)) << 10;
    return 0;
}

/**
 * Whole-process memory stays within the BFS-DFS budget (§4.2): a
 * 4-cycle census on the lj stand-in (the CLI's default cluster) may
 * peak at the resident graph state + levels x units x chunkBytes
 * plus slack, untraced and with a sink attached.  Each test runs in
 * its own process, so VmHWM measures this run alone.
 */
TEST(TraceMemory, FourCycleOnLjStaysWithinChunkBudget)
{
    if (KHUZDUL_TEST_SANITIZED)
        GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
    if (procStatusBytes("VmHWM") == 0)
        GTEST_SKIP() << "/proc/self/status has no VmHWM";
    const Graph &g = datasets::byName("lj").graph;
    core::EngineConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(8);
    config.cluster.socketsPerNode = 2;
    config.chunkBytes = 1 << 20;
    config.hostThreads = 4;
    const auto plan = compileAutomine(Pattern::cycleOf(4), {});

    const auto peak_after = [&](sim::TraceSink *sink) {
        core::Engine engine(g, config);
        // Measure from the resident graph state: reset the
        // high-water mark where the kernel allows it, otherwise
        // start from the peak so far (a looser bound).
        std::ofstream("/proc/self/clear_refs") << "5";
        const std::uint64_t base = procStatusBytes("VmHWM");
        engine.setTraceSink(sink);
        EXPECT_GT(engine.run(plan), 0u);
        const std::uint64_t units = engine.partition().numUnits();
        const std::uint64_t budget = base
            + plan.levels.size() * units * config.chunkBytes
            + (16ull << 20);
        return std::make_pair(procStatusBytes("VmHWM"), budget);
    };

    const auto [untraced, untraced_budget] = peak_after(nullptr);
    EXPECT_LE(untraced, untraced_budget) << "untraced peak RSS";

    std::ofstream discard("/dev/null");
    sim::JsonLinesTraceSink sink(discard);
    const auto [traced, traced_budget] = peak_after(&sink);
    EXPECT_LE(traced, traced_budget) << "traced peak RSS";
}

} // namespace
} // namespace khuzdul
