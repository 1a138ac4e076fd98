#include "sim/trace.hh"

#include <algorithm>
#include <ostream>

#include "support/check.hh"

namespace khuzdul
{
namespace sim
{

const char *
phaseEventName(PhaseEvent event)
{
    switch (event) {
      case PhaseEvent::ChunkOpen:
        return "chunk_open";
      case PhaseEvent::ChunkClose:
        return "chunk_close";
      case PhaseEvent::FetchBatchIssued:
        return "fetch_batch_issued";
      case PhaseEvent::FetchBatchCompleted:
        return "fetch_batch_completed";
      case PhaseEvent::ExtendStart:
        return "extend_start";
      case PhaseEvent::ExtendEnd:
        return "extend_end";
      case PhaseEvent::CacheHit:
        return "cache_hit";
      case PhaseEvent::CacheMiss:
        return "cache_miss";
      case PhaseEvent::KernelDispatch:
        return "kernel_dispatch";
      case PhaseEvent::FaultInjected:
        return "fault_injected";
      case PhaseEvent::FetchRetry:
        return "retry";
      case PhaseEvent::FetchRecovered:
        return "recovered";
      case PhaseEvent::ChunkReplayed:
        return "chunk_replayed";
      case PhaseEvent::StealIssued:
        return "steal_issued";
      case PhaseEvent::StealCompleted:
        return "steal_completed";
      case PhaseEvent::Checkpoint:
        return "checkpoint";
      case PhaseEvent::UnitCrashed:
        return "unit_crashed";
      case PhaseEvent::ChunkAdopted:
        return "chunk_adopted";
      case PhaseEvent::QueryRetried:
        return "query_retried";
    }
    KHUZDUL_PANIC("unreachable phase event");
}

TraceSink &
nullTraceSink()
{
    static NullTraceSink sink;
    return sink;
}

std::uint64_t
CountingTraceSink::total() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_)
        total += c;
    return total;
}

void
CountingTraceSink::reset()
{
    counts_.fill(0);
    values_.fill(0);
}

void
CountingTraceSink::add(const CountingTraceSink &other)
{
    for (std::size_t e = 0; e < kNumPhaseEvents; ++e) {
        counts_[e] += other.counts_[e];
        values_[e] += other.values_[e];
    }
}

BufferingTraceSink::BufferingTraceSink(std::size_t block_records)
    : blockRecords_(block_records)
{
    KHUZDUL_REQUIRE(block_records > 0, "trace block must hold a record");
}

void
BufferingTraceSink::clear(bool record)
{
    recording_ = record;
    tallies_.reset();
    std::vector<TraceRecord>().swap(block_);
    spillFile_.reset();
    spilled_ = 0;
}

void
BufferingTraceSink::spill()
{
    if (!spillFile_) {
        spillFile_.reset(std::tmpfile());
        KHUZDUL_REQUIRE(spillFile_, "cannot create a trace spill file");
    }
    const std::size_t n = block_.size();
    KHUZDUL_REQUIRE(std::fwrite(block_.data(), sizeof(TraceRecord), n,
                                spillFile_.get()) == n,
                    "trace spill write failed");
    spilled_ += n;
    block_.clear();
}

void
BufferingTraceSink::drainInto(CountingTraceSink &counts, TraceSink &stream)
{
    counts.add(tallies_);
    if (spillFile_) {
        // Spill the tail too, then stream the file back one block at
        // a time through the same storage.
        spill();
        std::rewind(spillFile_.get());
        for (std::size_t left = spilled_; left > 0;) {
            const std::size_t n = std::min(left, blockRecords_);
            block_.resize(n);
            KHUZDUL_REQUIRE(std::fread(block_.data(), sizeof(TraceRecord),
                                       n, spillFile_.get()) == n,
                            "trace spill read failed");
            for (const TraceRecord &record : block_)
                stream.emit(record);
            left -= n;
        }
    } else {
        for (const TraceRecord &record : block_)
            stream.emit(record);
    }
    clear(recording_);
}

void
JsonLinesTraceSink::emit(const TraceRecord &record)
{
    *out_ << "{\"event\":\"" << phaseEventName(record.event)
          << "\",\"unit\":" << record.unit
          << ",\"level\":" << record.level
          << ",\"value\":" << record.value
          << ",\"aux\":" << record.aux << "}\n";
}

} // namespace sim
} // namespace khuzdul
