#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>

namespace nmspmm::obs {
namespace {

// Word layout of a published slot (all relaxed atomics; the per-slot
// seqlock orders them against readers):
//   w0 trace_id   w1 ts_us   w2 dur_us   w3 target   w4 detail
//   w5 attrs: kind | cls<<8 | flush<<16 | lane<<24 | shard<<32
//             | rows<<48 (rows clamped to 16 bits; batches are far
//             smaller than 65535 rows)
constexpr int kW5Cls = 8;
constexpr int kW5Flush = 16;
constexpr int kW5Lane = 24;
constexpr int kW5Shard = 32;
constexpr int kW5Rows = 48;

std::uint64_t pack_attrs(const TraceSpan& s) {
  const std::uint64_t rows =
      s.rows > 0xffff ? 0xffffu : static_cast<std::uint64_t>(s.rows);
  return static_cast<std::uint64_t>(s.kind) |
         (static_cast<std::uint64_t>(s.cls) << kW5Cls) |
         (static_cast<std::uint64_t>(s.flush) << kW5Flush) |
         (static_cast<std::uint64_t>(s.lane) << kW5Lane) |
         (static_cast<std::uint64_t>(s.shard) << kW5Shard) |
         (rows << kW5Rows);
}

void unpack_attrs(std::uint64_t w5, TraceSpan& s) {
  s.kind = static_cast<SpanKind>(w5 & 0xff);
  s.cls = static_cast<std::uint8_t>((w5 >> kW5Cls) & 0xff);
  s.flush = static_cast<std::uint8_t>((w5 >> kW5Flush) & 0xff);
  s.lane = static_cast<ExecLane>((w5 >> kW5Lane) & 0xff);
  s.shard = static_cast<std::uint16_t>((w5 >> kW5Shard) & 0xffff);
  s.rows = static_cast<std::uint32_t>((w5 >> kW5Rows) & 0xffff);
}

std::atomic<TraceRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_repack_events{0};

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit:
      return "submit";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kGather:
      return "gather";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kTotal:
      return "total";
    case SpanKind::kRepack:
      return "repack";
    case SpanKind::kAttn:
      return "attn";
    case SpanKind::kKvAppend:
      return "kv_append";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

const char* to_string(ExecLane lane) {
  switch (lane) {
    case ExecLane::kNone:
      return "-";
    case ExecLane::kBypass:
      return "bypass";
    case ExecLane::kCoalesce:
      return "coalesce";
    case ExecLane::kSplit:
      return "split";
  }
  return "?";
}

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::bit_ceil(std::max<std::size_t>(options.ring_spans, 2))) {}

TraceRecorder::~TraceRecorder() {
  clear_global_recorder(this);
  for (auto& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

TraceRecorder::Shard& TraceRecorder::shard() {
  // Same discipline as serve::Telemetry: each recording thread claims a
  // slot index once, then CAS-installs a shard there on first use.
  static std::atomic<unsigned> next_slot{0};
  thread_local const unsigned slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  Shard* s = shards_[slot].load(std::memory_order_acquire);
  if (s == nullptr) {
    auto* fresh = new Shard(capacity_);
    if (shards_[slot].compare_exchange_strong(s, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;  // lost the install race; s now holds the winner
  }
  return *s;
}

void TraceRecorder::record(const TraceSpan& span) {
  Shard& sh = shard();
  const std::uint64_t ticket = sh.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = sh.slots[ticket & (capacity_ - 1)];
  // Seqlock writer: mark the slot in-progress, publish the payload with
  // release stores (each one carries the odd mark with it: a reader that
  // sees any new word also sees the mark and rejects the slot), then
  // release-store the completion value (even, encodes the ticket so
  // readers can tell generations apart after wraparound). No fence, so
  // the thread sanitizer models every ordering; on x86 all of these are
  // plain stores.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  slot.words[0].store(span.trace_id, std::memory_order_release);
  slot.words[1].store(span.ts_us, std::memory_order_release);
  slot.words[2].store(span.dur_us, std::memory_order_release);
  slot.words[3].store(span.target, std::memory_order_release);
  slot.words[4].store(span.detail, std::memory_order_release);
  slot.words[5].store(pack_attrs(span), std::memory_order_release);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::uint64_t TraceRecorder::to_us(
    std::chrono::steady_clock::time_point tp) const {
  if (tp <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
          .count());
}

std::uint64_t TraceRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      total += s->head.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t TraceRecorder::drops() const {
  std::uint64_t total = 0;
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      const std::uint64_t head = s->head.load(std::memory_order_relaxed);
      if (head > capacity_) total += head - capacity_;
    }
  }
  return total;
}

void TraceRecorder::snapshot_shard(const Shard& shard,
                                   std::vector<TraceSpan>& out) const {
  const std::uint64_t head = shard.head.load(std::memory_order_acquire);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  for (std::uint64_t ticket = begin; ticket < head; ++ticket) {
    const Slot& slot = shard.slots[ticket & (capacity_ - 1)];
    // Seqlock reader: accept the slot only if the completion value for
    // exactly this ticket is stable across the payload reads. The
    // acquire loads keep the re-check after them, and a word from a
    // later writer synchronizes with that writer's odd mark, so the
    // re-check then fails.
    const std::uint64_t want = 2 * ticket + 2;
    if (slot.seq.load(std::memory_order_acquire) != want) continue;
    std::uint64_t words[kWords];
    for (int w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.seq.load(std::memory_order_relaxed) != want) continue;
    TraceSpan span;
    span.trace_id = words[0];
    span.ts_us = words[1];
    span.dur_us = words[2];
    span.target = words[3];
    span.detail = words[4];
    unpack_attrs(words[5], span);
    out.push_back(span);
  }
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  std::vector<TraceSpan> out;
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      snapshot_shard(*s, out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.trace_id < b.trace_id;
            });
  return out;
}

void append_chrome_events(const std::vector<TraceSpan>& spans,
                          std::string& out) {
  char buf[256];
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out += ",\n";
    first = false;
    const char* cat = "serve";
    if (s.kind == SpanKind::kRepack) {
      cat = "mem";
    } else if (s.kind == SpanKind::kAttn || s.kind == SpanKind::kKvAppend) {
      cat = "attn";
    } else if (s.cls == 0) {
      cat = "decode";
    } else if (s.cls == 1) {
      cat = "prefill";
    }
    const unsigned tid = s.shard == 0xffff ? 0u : s.shard;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%llu,\"dur\":%llu,"
                  "\"args\":{\"trace_id\":%llu,\"rows\":%u,",
                  to_string(s.kind), cat, tid,
                  static_cast<unsigned long long>(s.ts_us),
                  static_cast<unsigned long long>(s.dur_us),
                  static_cast<unsigned long long>(s.trace_id), s.rows);
    out += buf;
    const char* flush = "-";
    switch (s.flush) {
      case 0:
        flush = "full";
        break;
      case 1:
        flush = "timeout";
        break;
      case 2:
        flush = "slo";
        break;
      case 3:
        flush = "shutdown";
        break;
      default:
        break;
    }
    const char* detail_key = "repacks";
    if (s.kind == SpanKind::kRepack || s.kind == SpanKind::kKvAppend) {
      detail_key = "bytes";
    } else if (s.kind == SpanKind::kAttn) {
      detail_key = "tokens";  // total context tokens attended this batch
    }
    std::snprintf(buf, sizeof(buf),
                  "\"flush\":\"%s\",\"lane\":\"%s\","
                  "\"target\":\"0x%llx\",\"%s\":%llu}}",
                  flush, to_string(s.lane),
                  static_cast<unsigned long long>(s.target), detail_key,
                  static_cast<unsigned long long>(s.detail));
    out += buf;
  }
}

Status TraceRecorder::dump_chrome_json(const std::string& path) const {
  std::string body = "{\"traceEvents\":[\n";
  append_chrome_events(snapshot(), body);
  body += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::Internal("trace dump: cannot open " + path);
  }
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.flush();
  if (!file) {
    return Status::Internal("trace dump: short write to " + path);
  }
  return Status::Ok();
}

void set_global_recorder(TraceRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

void clear_global_recorder(TraceRecorder* recorder) {
  TraceRecorder* expected = recorder;
  g_recorder.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire);
}

TraceRecorder* global_recorder() {
  return g_recorder.load(std::memory_order_acquire);
}

std::uint64_t repack_events() {
  return g_repack_events.load(std::memory_order_relaxed);
}

namespace {

// Shared tail of the count_*_event hooks: a just-finished window of
// @p dur_us becomes a span ending now in the global recorder.
void record_window(SpanKind kind, std::uint32_t rows, std::uint64_t detail,
                   std::uint64_t dur_us) {
  if (TraceRecorder* recorder = global_recorder()) {
    TraceSpan span;
    span.kind = kind;
    span.dur_us = dur_us;
    const std::uint64_t now = recorder->now_us();
    span.ts_us = now > dur_us ? now - dur_us : 0;
    span.detail = detail;
    span.rows = rows;
    span.shard = 0xffff;
    recorder->record(span);
  }
}

}  // namespace

void count_repack_event(std::uint64_t bytes, std::uint64_t dur_us) {
  g_repack_events.fetch_add(1, std::memory_order_relaxed);
  record_window(SpanKind::kRepack, 0, bytes, dur_us);
}

void count_attn_event(std::uint32_t rows, std::uint64_t context_tokens,
                      std::uint64_t dur_us) {
  record_window(SpanKind::kAttn, rows, context_tokens, dur_us);
}

void count_kv_append_event(std::uint32_t rows, std::uint64_t bytes,
                           std::uint64_t dur_us) {
  record_window(SpanKind::kKvAppend, rows, bytes, dur_us);
}

}  // namespace nmspmm::obs
