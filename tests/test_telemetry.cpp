// Telemetry subsystem contracts: span nesting and ordering, bounded
// drop-counting rings, deterministic multi-threaded counter merges, and
// Chrome trace-event JSON well-formedness (checked by an actual parser, not
// substring matching).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace socpower::telemetry {
namespace {

/// Minimal recursive-descent JSON syntax checker. Accepts exactly the RFC
/// 8259 grammar (no trailing commas, no comments); the exporter must produce
/// output any real consumer (chrome://tracing, python json) can load.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (!strchr_escape(e)) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool literal(const char* lit) {
    for (; *lit; ++lit, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *lit) return false;
    }
    return true;
  }
  static bool strchr_escape(char e) {
    return e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
           e == 'n' || e == 'r' || e == 't';
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digit()) return false;
    while (digit_peek()) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return false;
      while (digit_peek()) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return false;
      while (digit_peek()) ++pos_;
    }
    return pos_ > start;
  }
  bool digit() {
    if (!digit_peek()) return false;
    ++pos_;
    return true;
  }
  bool digit_peek() const {
    return pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]));
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Enables collection for one test and restores the previous configuration
/// (each ctest test is its own process, but the binary can also run whole).
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool trace) : saved_(config()) {
    TelemetryConfig cfg = saved_;
    cfg.enabled = true;
    cfg.trace = trace;
    configure(cfg);
    reset();
  }
  ~ScopedTelemetry() {
    reset();
    configure(saved_);
  }

 private:
  TelemetryConfig saved_;
};

TEST(TelemetryRegistry, SameNameReturnsSameHandle) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &r.counter("y.count"));
  EXPECT_EQ(&r.gauge("g"), &r.gauge("g"));
  EXPECT_EQ(&r.histogram("h"), &r.histogram("h"));
}

TEST(TelemetryRegistry, CountersGaugesHistogramsCollect) {
  ScopedTelemetry scope(/*trace=*/false);
  Registry r;
  r.counter("c").add(3);
  r.counter("c").add();
  r.gauge("g").set(5);
  r.gauge("g").set(9);
  r.gauge("g").set(2);
  r.histogram("h").observe(10);
  r.histogram("h").observe(30);

  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter_or("c"), 4u);
  EXPECT_EQ(s.counter_or("absent", 77), 77u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].value, 2);
  EXPECT_EQ(s.gauges[0].peak, 9);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(s.histograms[0].mean, 20.0);

  r.reset();
  const Snapshot z = r.snapshot();
  EXPECT_EQ(z.counter_or("c"), 0u);
  EXPECT_EQ(z.gauges[0].peak, 0);
  EXPECT_EQ(z.histograms[0].count, 0u);
}

TEST(TelemetryRegistry, DisabledMutationsAreDropped) {
  TelemetryConfig off;
  off.enabled = false;
  const TelemetryConfig saved = config();
  configure(off);
  Registry r;
  r.counter("c").add(10);
  r.gauge("g").set(10);
  r.histogram("h").observe(0.5);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter_or("c"), 0u);
  EXPECT_EQ(s.gauges[0].peak, 0);
  EXPECT_EQ(s.histograms[0].count, 0u);
  configure(saved);
}

TEST(TelemetryRegistry, SnapshotJsonParsesAndTableRenders) {
  ScopedTelemetry scope(/*trace=*/false);
  Registry r;
  r.counter("a.weird\"name\\").add(1);
  r.gauge("g").set(-3);
  r.histogram("h").observe(2.5);
  const Snapshot s = r.snapshot();
  const std::string json = s.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  const std::string table = s.render_table();
  EXPECT_NE(table.find("a.weird"), std::string::npos);
  EXPECT_NE(table.find("peak"), std::string::npos);
}

TEST(TelemetryCounters, MultiThreadedMergeIsDeterministic) {
  ScopedTelemetry scope(/*trace=*/false);
  // Relaxed adds commute: the merged total must equal the serial total for
  // every thread count, which is what keeps reported hit rates bit-stable
  // across SOCPOWER_THREADS settings.
  constexpr std::size_t kN = 20'000;
  for (const unsigned threads : {1u, 2u, 4u}) {
    Registry r;
    Counter& c = r.counter("merge");
    ThreadPool pool(threads);
    pool.parallel_for(kN, [&](std::size_t i) { c.add(i % 7 + 1); });
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < kN; ++i) expect += i % 7 + 1;
    EXPECT_EQ(r.snapshot().counter_or("merge"), expect) << threads;
  }
}

TEST(TelemetryTrace, SpanNestingAndOrdering) {
  ScopedTelemetry scope(/*trace=*/true);
  collector().clear();
  {
    SOCPOWER_TRACE_SPAN("outer", 100);
    {
      SOCPOWER_TRACE_SPAN("inner", 200, 42);
      SOCPOWER_TRACE_INSTANT("mark", 150);
    }
  }
  const auto threads = collector().events();
  ASSERT_EQ(threads.size(), 1u);
  const auto& evs = threads[0].events;
  ASSERT_EQ(evs.size(), 3u);
  // Scope exit order: instant first, then inner, then outer.
  EXPECT_STREQ(evs[0].name, "mark");
  EXPECT_LT(evs[0].dur_ns, 0);  // instant
  EXPECT_STREQ(evs[1].name, "inner");
  EXPECT_STREQ(evs[2].name, "outer");
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(evs[1].start_ns, evs[2].start_ns);
  EXPECT_LE(evs[1].start_ns + evs[1].dur_ns,
            evs[2].start_ns + evs[2].dur_ns);
  EXPECT_EQ(evs[1].sim_time, 200u);
  EXPECT_EQ(evs[1].arg, 42u);
  EXPECT_TRUE(evs[1].flags & TraceEvent::kHasArg);
  EXPECT_EQ(evs[2].sim_time, 100u);
  EXPECT_FALSE(evs[2].flags & TraceEvent::kHasArg);
}

TEST(TelemetryTrace, DisabledSpansRecordNothing) {
  ScopedTelemetry scope(/*trace=*/false);  // counters on, tracing off
  collector().clear();
  {
    SOCPOWER_TRACE_SPAN("quiet");
    SOCPOWER_TRACE_INSTANT("silent");
  }
  EXPECT_EQ(collector().event_count(), 0u);
}

TEST(TelemetryTrace, RingBoundsAndDropCounter) {
  TraceCollector tc(/*ring_capacity=*/8);
  TraceEvent ev;
  ev.name = "e";
  for (int i = 0; i < 20; ++i) {
    ev.start_ns = i;
    tc.record(ev);
  }
  EXPECT_EQ(tc.event_count(), 8u);
  EXPECT_EQ(tc.dropped(), 12u);
  const auto threads = tc.events();
  ASSERT_EQ(threads.size(), 1u);
  // The ring keeps the oldest events (head of the run) and drops the tail.
  EXPECT_EQ(threads[0].events.front().start_ns, 0);
  EXPECT_EQ(threads[0].events.back().start_ns, 7);

  tc.clear();
  EXPECT_EQ(tc.event_count(), 0u);
  EXPECT_EQ(tc.dropped(), 0u);
}

TEST(TelemetryTrace, PerThreadRingsMergeInExport) {
  ScopedTelemetry scope(/*trace=*/false);
  TraceCollector tc;
  constexpr int kPerThread = 50;
  auto work = [&] {
    TraceEvent ev;
    ev.name = "w";
    for (int i = 0; i < kPerThread; ++i) tc.record(ev);
  };
  std::thread a(work), b(work);
  work();
  a.join();
  b.join();
  EXPECT_EQ(tc.event_count(), 3u * kPerThread);
  EXPECT_EQ(tc.events().size(), 3u);
  EXPECT_EQ(tc.dropped(), 0u);
}

TEST(TelemetryTrace, ChromeJsonParsesWithParser) {
  ScopedTelemetry scope(/*trace=*/true);
  collector().clear();
  registry().counter("json.test\"quoted").add(2);
  {
    SOCPOWER_TRACE_SPAN("phase \"odd\" name\\", 7, 3);
    SOCPOWER_TRACE_INSTANT("tick", 9);
  }
  const Snapshot snap = registry().snapshot();
  const std::string json = collector().chrome_trace_json(&snap);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Chrome trace-event essentials the viewers rely on.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_time\":7"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(TelemetryConfig, TraceImpliesEnabledAndConfigRoundTrips) {
  const TelemetryConfig saved = config();
  TelemetryConfig cfg;
  cfg.enabled = false;
  cfg.trace = true;  // normalized away: tracing requires the master switch
  cfg.ring_capacity = 123;
  configure(cfg);
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(config().ring_capacity, 123u);

  set_enabled(true, true);
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(trace_enabled());
  configure(saved);
}

}  // namespace
}  // namespace socpower::telemetry
