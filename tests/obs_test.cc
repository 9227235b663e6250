#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "core/active_loop.h"
#include "core/daakg.h"
#include "obs/json_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace daakg {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for round-trip checks: parses objects, arrays,
// strings, and numbers (everything MetricsToJson emits). No escapes beyond
// what metric names need.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kObject, kArray, kString, kNumber } kind = kNumber;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string str;
  double number = 0.0;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_]);
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::kNumber;
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Set(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("daakg.test.a");
  Counter* a2 = registry.GetCounter("daakg.test.a");
  Counter* b = registry.GetCounter("daakg.test.b");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  a->Increment(3);
  auto counters = registry.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "daakg.test.a");  // sorted by name
  EXPECT_EQ(counters[0].second->Value(), 3u);
  EXPECT_EQ(counters[1].first, "daakg.test.b");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandlesValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  c->Increment(7);
  g->Set(1.25);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  // The handles still refer to the registry's live metrics.
  c->Increment();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("concurrent.counter");
  // Use a dedicated pool so the test exercises real contention even if the
  // global pool is sized for one core.
  ThreadPool pool(4);
  constexpr size_t kIters = 20000;
  pool.ParallelFor(kIters, [counter](size_t) { counter->Increment(); });
  EXPECT_EQ(counter->Value(), kIters);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  std::vector<Counter*> seen(64, nullptr);
  pool.ParallelFor(seen.size(), [&](size_t i) {
    // Many threads race to register a handful of names.
    seen[i] = registry.GetCounter("shared." + std::to_string(i % 4));
    seen[i]->Increment();
  });
  EXPECT_EQ(registry.Counters().size(), 4u);
  uint64_t total = 0;
  for (const auto& [name, c] : registry.Counters()) total += c->Value();
  EXPECT_EQ(total, seen.size());
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

TEST(JsonExporterTest, EmptyRegistryIsValidJson) {
  MetricsRegistry registry;
  JsonValue root;
  ASSERT_TRUE(JsonParser(MetricsToJson(registry)).Parse(&root));
  EXPECT_EQ(root.kind, JsonValue::kObject);
  EXPECT_TRUE(root.at("counters").object.empty());
  EXPECT_TRUE(root.at("gauges").object.empty());
}

TEST(JsonExporterTest, RoundTripsValues) {
  MetricsRegistry registry;
  registry.GetCounter("daakg.test.queries")->Increment(120);
  registry.GetGauge("daakg.test.pool_size")->Set(4096.0);

  JsonValue root;
  ASSERT_TRUE(JsonParser(MetricsToJson(registry)).Parse(&root));

  std::vector<std::string> keys;
  for (const auto& [key, value] : root.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"counters", "gauges"}));
  EXPECT_DOUBLE_EQ(root.at("counters").at("daakg.test.queries").number, 120.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("daakg.test.pool_size").number,
                   4096.0);
}

TEST(JsonExporterTest, EscapesNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with\njunk")->Increment();
  JsonValue root;
  ASSERT_TRUE(JsonParser(MetricsToJson(registry)).Parse(&root));
  ASSERT_EQ(root.at("counters").object.size(), 1u);
}

TEST(GlobalMetricsTest, IsSingleton) {
  EXPECT_EQ(&GlobalMetrics(), &GlobalMetrics());
  // The library's instrumentation registers under daakg.<layer>.<metric>;
  // touching one name here must not perturb others.
  GlobalMetrics().GetCounter("daakg.test.obs_test_marker")->Increment();
  EXPECT_GE(GlobalMetrics().Counters().size(), 1u);
}

// ---------------------------------------------------------------------------
// Structured tracing
// ---------------------------------------------------------------------------

// Every trace test leaves the global session stopped; this guard also makes
// each test robust to an unexpectedly active session (e.g. DAAKG_TRACE set
// in the test environment).
void EnsureNoActiveSession() {
  if (TraceSession::Global().active()) TraceSession::Global().Stop();
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  EnsureNoActiveSession();
  {
    TraceSpan span("trace_disabled", "test");
    EXPECT_EQ(span.id(), 0u);
    span.AddArg("ignored", 1.0);  // no-op when not traced
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Untraced spans still time themselves.
    EXPECT_GE(span.Finish(), 1e-3);
  }
  EXPECT_TRUE(TraceSession::Global().Stop().empty());
}

TEST(TraceTest, RecordsNestedSpans) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("trace_nest_outer", "test");
    outer_id = outer.id();
    {
      TraceSpan inner("trace_nest_inner", "test");
      inner.AddArg("depth", 2.0);
      inner_id = inner.id();
    }
  }
  std::vector<TraceEvent> events = TraceSession::Global().Stop();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(outer_id, 0u);
  EXPECT_NE(inner_id, 0u);
  // Stop() sorts by start time: outer first.
  EXPECT_STREQ(events[0].name, "trace_nest_outer");
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_EQ(events[0].id, outer_id);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_STREQ(events[1].name, "trace_nest_inner");
  EXPECT_EQ(events[1].id, inner_id);
  EXPECT_EQ(events[1].parent_id, outer_id);
  ASSERT_EQ(events[1].num_args, 1u);
  EXPECT_STREQ(events[1].args[0].key, "depth");
  EXPECT_DOUBLE_EQ(events[1].args[0].value, 2.0);
  // Temporal containment: the inner span starts and ends within the outer.
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns);
  EXPECT_LE(events[1].ts_ns + events[1].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
}

TEST(TraceTest, FinishMatchesTraceDurationBitForBit) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  double seconds = -1.0;
  {
    TraceSpan span("trace_finish", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seconds = span.Finish();
  }
  std::vector<TraceEvent> events = TraceSession::Global().Stop();
  ASSERT_EQ(events.size(), 1u);
  // One clock-read pair feeds both: Finish()'s return value and the trace
  // duration are the same number, exactly.
  EXPECT_EQ(seconds, static_cast<double>(events[0].dur_ns) * 1e-9);
}

TEST(TraceTest, ParallelForSpansNestUnderEnqueuingSpan) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  uint64_t outer_id = 0;
  constexpr size_t kIters = 64;
  {
    // The pool is destroyed (workers joined) before Stop(): a pool.task
    // event is emitted by the task_end hook, which can run after
    // ParallelFor returns — only the join makes its collection
    // deterministic.
    ThreadPool pool(4);
    TraceSpan outer("trace_fanout_outer", "test");
    outer_id = outer.id();
    pool.ParallelFor(kIters, [](size_t) {
      TraceSpan inner("trace_fanout_work", "test");
    });
    outer.Finish();
  }
  std::vector<TraceEvent> events = TraceSession::Global().Stop();
  std::set<uint64_t> task_ids;
  size_t num_tasks = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "pool.task") {
      // Synthetic pool-task spans are parented to the span that submitted
      // the work, whichever thread runs them.
      EXPECT_EQ(e.parent_id, outer_id);
      task_ids.insert(e.id);
      ++num_tasks;
    }
  }
  // 4 shards: shard 0 runs inline on the caller, shards 1..3 are submitted
  // as pool tasks (the caller may help-drain them, which still goes through
  // the task hooks).
  EXPECT_EQ(num_tasks, 3u);
  size_t num_work = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "trace_fanout_work") continue;
    ++num_work;
    // Inline shard 0 iterations parent to the outer span directly; the rest
    // parent to their shard's pool.task span.
    EXPECT_TRUE(e.parent_id == outer_id || task_ids.count(e.parent_id) > 0)
        << "unparented work span " << e.id;
  }
  EXPECT_EQ(num_work, kIters);
}

TEST(TraceTest, ConcurrentSpanEmissionIsSafe) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  ThreadPool pool(4);
  constexpr size_t kIters = 2000;
  pool.ParallelFor(kIters, [](size_t i) {
    TraceSpan span("trace_concurrent", "test");
    span.AddArg("i", static_cast<double>(i));
  });
  std::vector<TraceEvent> events = TraceSession::Global().Stop();
  size_t num_work = 0;
  std::set<uint64_t> ids;
  for (const TraceEvent& e : events) {
    EXPECT_TRUE(ids.insert(e.id).second) << "duplicate span id " << e.id;
    if (std::string(e.name) == "trace_concurrent") ++num_work;
  }
  EXPECT_EQ(num_work, kIters);
  EXPECT_EQ(TraceSession::Global().dropped_last_session(), 0u);
}

TEST(TraceTest, StartStopRacesWithEmittersAreSafe) {
  EnsureNoActiveSession();
  // An emitter hammers span creation while the main thread cycles tiny
  // sessions: stragglers from a previous generation must never corrupt or
  // leak into a later session's collection. (Also in the TSan CI leg.)
  std::atomic<bool> stop{false};
  std::thread emitter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      TraceSpan span("trace_race", "test");
      span.AddArg("x", 1.0);
    }
  });
  for (int cycle = 0; cycle < 20; ++cycle) {
    ASSERT_TRUE(TraceSession::Global().Start(/*events_per_thread=*/64).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<TraceEvent> events = TraceSession::Global().Stop();
    for (const TraceEvent& e : events) {
      EXPECT_STREQ(e.name, "trace_race");
      EXPECT_NE(e.id, 0u);
    }
  }
  stop.store(true);
  emitter.join();
}

TEST(TraceTest, DropPolicyKeepsOldestAndCountsDrops) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start(/*events_per_thread=*/4).ok());
  std::vector<uint64_t> first_ids;
  for (int i = 0; i < 20; ++i) {
    TraceSpan span("trace_drop", "test");
    if (i < 4) first_ids.push_back(span.id());
  }
  std::vector<TraceEvent> events = TraceSession::Global().Stop();
  // Drop-newest: the first 4 spans survive, the remaining 16 are counted.
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, first_ids[i]);
  }
  EXPECT_EQ(TraceSession::Global().dropped_last_session(), 16u);
}

TEST(TraceTest, SessionRestartSeparatesEvents) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  { TraceSpan span("trace_session_a", "test"); }
  std::vector<TraceEvent> first = TraceSession::Global().Stop();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_STREQ(first[0].name, "trace_session_a");

  ASSERT_TRUE(TraceSession::Global().Start().ok());
  { TraceSpan span("trace_session_b", "test"); }
  std::vector<TraceEvent> second = TraceSession::Global().Stop();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_STREQ(second[0].name, "trace_session_b");
}

TEST(TraceTest, StartValidatesAndRejectsDoubleStart) {
  EnsureNoActiveSession();
  EXPECT_EQ(TraceSession::Global().Start(0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(TraceSession::Global().Start().ok());
  EXPECT_TRUE(TraceSession::Global().active());
  EXPECT_EQ(TraceSession::Global().Start().code(),
            StatusCode::kFailedPrecondition);
  TraceSession::Global().Stop();
  EXPECT_FALSE(TraceSession::Global().active());
}

// End-to-end acceptance check: a full active-alignment run under a live
// session must export Chrome trace-event JSON that (a) parses, (b) carries
// spans from every major subsystem, and (c) nests children within their
// parents' time ranges.
TEST(TraceTest, ExportsValidChromeTraceJsonFromActiveLoop) {
  EnsureNoActiveSession();
  ASSERT_TRUE(TraceSession::Global().Start().ok());

  AlignmentTask task = testing_util::SmallSyntheticTask();
  DaakgConfig dcfg;
  dcfg.kge_model = KgeModelKind::kTransE;
  dcfg.kge.dim = 16;
  dcfg.kge.class_dim = 8;
  dcfg.kge.epochs = 8;
  dcfg.align.align_epochs = 25;
  dcfg.align.joint_epochs_per_round = 2;
  dcfg.fine_tune_epochs = 4;
  DaakgAligner aligner(&task, dcfg);
  GoldOracle oracle(&task);
  RandomStrategy strategy;
  ActiveLoopConfig cfg;
  cfg.batch_size = 30;
  cfg.initial_seed_fraction = 0.05;
  cfg.report_fractions = {0.1, 0.2};
  cfg.pool.top_n = 10;
  ActiveAlignmentLoop loop(&task, &aligner, &strategy, &oracle, cfg);
  ASSERT_EQ(loop.Run().size(), 2u);

  const std::string path = ::testing::TempDir() + "daakg_trace_test.json";
  ASSERT_TRUE(TraceSession::Global().StopAndWriteJson(path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status();
  std::remove(path.c_str());

  JsonValue root;
  ASSERT_TRUE(JsonParser(content.value()).Parse(&root));
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const JsonValue& trace_events = root.at("traceEvents");
  ASSERT_EQ(trace_events.kind, JsonValue::kArray);
  ASSERT_GT(trace_events.array.size(), 1u);

  // First pass: index complete ("X") events by span id.
  struct Window {
    double ts = 0.0;
    double dur = 0.0;
  };
  std::map<double, Window> by_id;
  std::set<std::string> cats;
  for (const JsonValue& e : trace_events.array) {
    if (e.at("ph").str != "X") continue;
    cats.insert(e.at("cat").str);
    EXPECT_FALSE(e.at("name").str.empty());
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_GE(e.at("tid").number, 1.0);
    const JsonValue& args = e.at("args");
    by_id[args.at("span_id").number] = Window{e.at("ts").number,
                                              e.at("dur").number};
  }
  // Spans from every major subsystem must be present.
  for (const char* cat :
       {"embedding", "align", "index", "active", "infer", "core"}) {
    EXPECT_EQ(cats.count(cat), 1u) << "no spans with cat=" << cat;
  }

  // Second pass: every child with a surviving parent nests inside it
  // (tolerance covers the exporter's 3-decimal microsecond rounding).
  // pool.task spans are exempt: their end timestamp comes from the
  // task_end hook, which can run a hair after the submitting span (the
  // completion handshake happens inside the task body), so they may
  // overshoot their parent's window by scheduling noise.
  constexpr double kEpsUs = 0.01;
  size_t nested = 0;
  for (const JsonValue& e : trace_events.array) {
    if (e.at("ph").str != "X") continue;
    if (e.at("name").str == "pool.task") continue;
    const JsonValue& args = e.at("args");
    const double parent_id = args.at("parent_span_id").number;
    if (parent_id == 0.0) continue;
    auto it = by_id.find(parent_id);
    if (it == by_id.end()) continue;  // parent dropped (buffer full)
    ++nested;
    const double ts = e.at("ts").number;
    const double end = ts + e.at("dur").number;
    EXPECT_GE(ts, it->second.ts - kEpsUs);
    EXPECT_LE(end, it->second.ts + it->second.dur + kEpsUs);
  }
  EXPECT_GT(nested, 0u);
}

// ---------------------------------------------------------------------------
// Thread-pool telemetry
// ---------------------------------------------------------------------------

TEST(PoolTelemetryTest, CountersAndGauge) {
  Counter* submitted =
      GlobalMetrics().GetCounter("daakg.pool.tasks_submitted");
  Counter* executed = GlobalMetrics().GetCounter("daakg.pool.tasks_executed");
  Counter* drained =
      GlobalMetrics().GetCounter("daakg.pool.help_drained_tasks");
  Gauge* depth = GlobalMetrics().GetGauge("daakg.pool.queue_depth");
  const uint64_t submitted0 = submitted->Value();
  const uint64_t executed0 = executed->Value();
  const uint64_t drained0 = drained->Value();

  ThreadPool pool(1);
  // Park the lone worker on a flag so every queued task below can only be
  // help-drained by the caller's Wait().
  std::atomic<bool> worker_parked{false};
  std::atomic<bool> release{false};
  pool.Submit([&worker_parked, &release] {
    worker_parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!worker_parked.load()) std::this_thread::yield();

  constexpr int kTasks = 8;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran, &release] {
      // The last help-drained task unparks the worker.
      if (ran.fetch_add(1) + 1 == kTasks) release.store(true);
    });
  }
  pool.Wait();

  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(submitted->Value() - submitted0,
            static_cast<uint64_t>(kTasks) + 1);
  EXPECT_EQ(executed->Value() - executed0, static_cast<uint64_t>(kTasks) + 1);
  // The worker was parked until the last task ran, so the caller drained
  // all of them.
  EXPECT_EQ(drained->Value() - drained0, static_cast<uint64_t>(kTasks));
  // The queue is empty again; the gauge tracked it back down.
  EXPECT_DOUBLE_EQ(depth->Value(), 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace daakg
