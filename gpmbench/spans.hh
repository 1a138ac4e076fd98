/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library's public API (no tracing inside the program).  Each span
 * keeps its name, start and end on one steady clock, the span that
 * caused it and the query it belongs to.  Spans stay in memory and
 * are written out once, at exit, with each span's self time: its
 * duration minus the union of the intervals its children cover.
 */

#ifndef GPMBENCH_SPANS_HH
#define GPMBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace gpmbench
{

/** Nanoseconds on the process-wide steady clock. */
inline std::uint64_t
nowNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
}

/** No parent / no query. */
inline constexpr std::int64_t kNone = -1;

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = kNone;
    std::int64_t query = kNone;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/**
 * Append-only span store.  A disabled recorder records nothing and
 * costs one branch per call, so the untraced run shares the traced
 * run's code path.  Single-threaded: only the benchmark's main
 * thread records.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (kNone when disabled). */
    std::int64_t
    open(std::string name, std::int64_t parent = kNone,
         std::int64_t query = kNone)
    {
        if (!enabled_)
            return kNone;
        spans_.push_back({std::move(name), nowNs(), 0, parent, query});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        if (id != kNone)
            spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    }

    /** Record a span whose interval was measured elsewhere. */
    std::int64_t
    add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
        std::int64_t parent, std::int64_t query)
    {
        if (!enabled_)
            return kNone;
        spans_.push_back({std::move(name), start_ns, end_ns, parent,
                          query});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span (duration minus children's union). */
    std::vector<std::uint64_t>
    selfTimes() const
    {
        std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            children(spans_.size());
        for (const Span &s : spans_)
            if (s.parent != kNone)
                children[static_cast<std::size_t>(s.parent)].push_back(
                    {s.startNs, s.endNs});
        std::vector<std::uint64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &kids = children[i];
            std::sort(kids.begin(), kids.end());
            std::uint64_t covered = 0;
            std::uint64_t reach = spans_[i].startNs;
            for (auto [start, end] : kids) {
                start = std::clamp(start, reach, spans_[i].endNs);
                end = std::clamp(end, start, spans_[i].endNs);
                covered += end - start;
                reach = std::max(reach, end);
            }
            self[i] = spans_[i].durationNs() - covered;
        }
        return self;
    }

    /** Write one JSON object per line; false if the file failed. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        const std::vector<std::uint64_t> self = selfTimes();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs
                << ", \"parent\": " << s.parent
                << ", \"query\": " << s.query
                << ", \"self_ns\": " << self[i] << "}\n";
        }
        out.close();
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** Scoped span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, std::string name,
               std::int64_t parent = kNone, std::int64_t query = kNone)
        : recorder_(recorder),
          id_(recorder.open(std::move(name), parent, query))
    {}
    ~ScopedSpan() { recorder_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanRecorder &recorder_;
    std::int64_t id_;
};

} // namespace gpmbench

#endif // GPMBENCH_SPANS_HH
