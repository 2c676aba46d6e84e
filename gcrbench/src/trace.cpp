#include "trace.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "apps/registry.hpp"
#include "interp/plan.hpp"
#include "ir/stats.hpp"
#include "locality/sampled_reuse.hpp"
#include "server/protocol.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"

namespace gcrbench {

namespace {

namespace gs = gcr::server;
namespace gst = gcr::store;

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t request = 0;
  std::uint64_t work = 0;  ///< accesses or bytes the span processed
};

/// One worker's spans, in memory until the run ends.
class SpanLog {
 public:
  int open(const char* name, std::uint64_t request) {
    spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back(),
                      request, 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id, std::uint64_t work = 0) {
    spans_[static_cast<std::size_t>(id)].end = now();
    spans_[static_cast<std::size_t>(id)].work = work;
    stack_.pop_back();
  }
  /// Close every span opened after `id` (the error path of a request).
  void unwindTo(int id) {
    while (!stack_.empty() && stack_.back() != id) close(stack_.back());
  }
  void setWork(int id, std::uint64_t work) {
    spans_[static_cast<std::size_t>(id)].work = work;
  }
  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t distinctData = 0;  ///< summed over exact profiles
  std::map<std::uint64_t, std::string> requestKeys;  ///< request id -> key

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

template <typename F>
auto timed(SpanLog& log, const char* name, std::uint64_t id, F&& f) {
  const int s = log.open(name, id);
  auto r = f();
  log.close(s);
  return r;
}

// --- the materialized access stream -----------------------------------------

constexpr std::uint32_t kWriteBit = 1u << 31;

std::int64_t elementOf(std::uint32_t w) { return w & ~kWriteBit; }
std::int64_t byteAddrOf(std::uint32_t w) { return elementOf(w) * 8; }
bool isWrite(std::uint32_t w) { return (w & kWriteBit) != 0; }

/// Flattens instructions exactly as the simulator and tracker sinks do
/// (reads in order, then the write), one 32-bit word per access: the element
/// index (byte address / 8) with the top bit set for writes.
class StreamSink final : public gcr::InstrSink {
 public:
  explicit StreamSink(std::vector<std::uint32_t>& out) : out_(out) {}
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) push(r, false);
    push(write, true);
  }
  void onBlock(const gcr::InstrBlock& b) override {
    for (std::size_t i = 0; i < b.size(); ++i) {
      for (std::int64_t r : b.reads(i)) push(r, false);
      push(b.writes[i], true);
    }
  }
  bool representable() const { return representable_; }

 private:
  void push(std::int64_t addr, bool write) {
    if (addr < 0 || addr % 8 != 0 || addr / 8 >= kWriteBit)
      representable_ = false;
    out_.push_back(static_cast<std::uint32_t>(addr / 8) |
                   (write ? kWriteBit : 0u));
  }
  std::vector<std::uint32_t>& out_;
  bool representable_ = true;
};

/// Keeps the per-component cache passes observable to the optimizer.
std::atomic<std::uint64_t> gMissSink{0};

gcr::Measurement simulate(const std::vector<std::uint32_t>& s, SpanLog& log,
                          std::uint64_t id) {
  const gcr::MachineConfig mc = machine();
  const std::uint64_t n = s.size();
  std::uint64_t misses = 0;
  {
    const int sp = log.open("cachesim.l1", id);
    gcr::SetAssocCache c(mc.l1);
    for (std::uint32_t w : s) c.access(byteAddrOf(w), isWrite(w));
    misses += c.stats().misses;
    log.close(sp, n);
  }
  {
    const int sp = log.open("cachesim.l2", id);
    gcr::SetAssocCache c(mc.l2);
    for (std::uint32_t w : s) c.access(byteAddrOf(w), isWrite(w));
    misses += c.stats().misses;
    log.close(sp, n);
  }
  {
    const int sp = log.open("cachesim.tlb", id);
    gcr::SetAssocCache c = gcr::makeTlb(mc.tlbEntries, mc.pageSize);
    for (std::uint32_t w : s) c.access(byteAddrOf(w), false);
    misses += c.stats().misses;
    log.close(sp, n);
  }
  gMissSink += misses;
  const int sp = log.open("cachesim.hierarchy", id);
  gcr::MemoryHierarchy h(mc);
  for (std::uint32_t w : s) h.access(byteAddrOf(w), isWrite(w));
  log.close(sp, n);
  gcr::Measurement m;
  m.counts = h.counts();
  m.cycles = gcr::CostModel{}.cycles(m.counts);
  m.memoryTrafficBytes = h.memoryTrafficBytes();
  m.effectiveBandwidth = h.effectiveBandwidthRatio();
  return m;
}

gcr::ReuseProfile exactProfile(const std::vector<std::uint32_t>& s,
                               std::uint64_t dataBytes, SpanLog& log,
                               std::uint64_t id) {
  const int sp = log.open("locality.exact_tracker", id);
  gcr::ReuseDistanceTracker t;
  t.reserve(s.size(), dataBytes / 8);
  gcr::ReuseProfile p;
  for (std::uint32_t w : s) p.histogram.add(t.access(elementOf(w)));
  p.accesses = t.accesses();
  p.distinctData = t.distinctData();
  log.close(sp, s.size());
  log.distinctData += p.distinctData;
  return p;
}

gcr::ReuseProfile sampledProfile(const std::vector<std::uint32_t>& s,
                                 std::uint64_t dataBytes, SpanLog& log,
                                 std::uint64_t id) {
  const int sp = log.open("locality.sampled_tracker", id);
  gcr::SampledReuseTracker t(kSampleRate);
  t.reserve(s.size(), dataBytes / 8);
  gcr::ReuseProfile p;
  for (std::uint32_t w : s) {
    const std::uint64_t d = t.access(elementOf(w));
    if (d != gcr::SampledReuseTracker::kNotSampled)
      p.histogram.add(d, t.countScale());
  }
  p.accesses = t.accesses();
  p.distinctData = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(t.distinctSampled()) / t.rate()));
  log.close(sp, s.size());
  return p;
}

// --- codecs -----------------------------------------------------------------

/// Encode the reply with its store codec, publish it to and read it back
/// from `store` (skipped when null: a warm reply is only encoded and
/// decoded), and decode it.  nullopt when any step fails.
template <typename T, typename Enc, typename Dec>
std::optional<T> codecRoundTrip(SpanLog& log, std::uint64_t id,
                                gst::ArtifactStore* store,
                                gst::ArtifactKind kind, const Key& k,
                                const T& value, Enc encode, Dec decode) {
  int s = log.open("store.encode", id);
  const std::vector<std::uint8_t> bytes = encode(value);
  log.close(s, bytes.size());
  std::span<const std::uint8_t> payload = bytes;
  std::optional<gst::MappedEntry> entry;
  if (store != nullptr) {
    const gcr::Signature sig{std::hash<std::string>{}(k.str()), id};
    s = log.open("store.put", id);
    const bool put = store->put(kind, sig, bytes);
    log.close(s, bytes.size());
    if (!put) return std::nullopt;
    s = log.open("store.get", id);
    entry = store->get(kind, sig);
    log.close(s, bytes.size());
    if (!entry) return std::nullopt;
    payload = entry->payload();
  }
  s = log.open("store.decode", id);
  std::optional<T> back = decode(payload);
  log.close(s, bytes.size());
  return back;
}

/// The request frame as a client encodes it and the server decodes it.
bool wireRoundTrip(SpanLog& log, std::uint64_t id, const Key& k) {
  if (k.kind == Kind::Symbolic) return true;  // no wire form
  int s = log.open("server.frame_encode", id);
  gs::MsgKind kind = gs::MsgKind::Measure;
  std::vector<std::uint8_t> payload;
  switch (k.kind) {
    case Kind::Measure:
      payload = gs::encodeMeasureRequest(measureRequest(k));
      break;
    case Kind::Profile:
    case Kind::Sampled:
      kind = gs::MsgKind::Profile;
      payload = gs::encodeProfileRequest(profileRequest(k));
      break;
    case Kind::Optimize:
      kind = gs::MsgKind::Optimize;
      payload = gs::encodeOptimizeRequest(optimizeRequest(k));
      break;
    case Kind::Multicore:
      kind = gs::MsgKind::Multicore;
      payload = gs::encodeMulticoreRequest(multicoreRequest(k));
      break;
    case Kind::Symbolic:
      break;
  }
  gs::FrameHeader fh;
  fh.kind = kind;
  fh.payloadBytes = payload.size();
  const std::vector<std::uint8_t> header = gs::encodeFrameHeader(fh);
  log.close(s, header.size() + payload.size());

  s = log.open("server.frame_decode", id);
  const std::optional<gs::FrameHeader> h = gs::decodeFrameHeader(header);
  bool ok = h && h->kind == kind && h->payloadBytes == payload.size();
  switch (kind) {
    case gs::MsgKind::Measure:
      ok = ok && gs::decodeMeasureRequest(payload).has_value();
      break;
    case gs::MsgKind::Profile:
      ok = ok && gs::decodeProfileRequest(payload).has_value();
      break;
    case gs::MsgKind::Optimize:
      ok = ok && gs::decodeOptimizeRequest(payload).has_value();
      break;
    default:
      ok = ok && gs::decodeMulticoreRequest(payload).has_value();
      break;
  }
  log.close(s, header.size() + payload.size());
  return ok;
}

// --- decomposition ----------------------------------------------------------

bool matchesReferee(const Referee& referee, const Key& k, Digest d) {
  if (referee.matches(k.str(), d)) return true;
  std::fprintf(stderr, "gcrbench: traced %s digest %s differs from referee\n",
               k.str().c_str(), hex(d).c_str());
  return false;
}

struct ColdContext {
  gcr::Engine& versions;  ///< Engine::version, the driver layer
  gst::ArtifactStore* store;
  const Referee& referee;
};

template <typename T>
T need(std::optional<T> v, const char* what) {
  if (!v) throw std::runtime_error(std::string(what) + " round trip failed");
  return std::move(*v);
}

/// Replay a computed (cold) request layer by layer.  True when every step
/// succeeded and the digest matches the referee.
bool decomposeCold(const Key& k, std::uint64_t id, ColdContext& ctx,
                   SpanLog& log) {
  log.requestKeys[id] = k.str();
  const int root = log.open("request", id);
  bool ok = wireRoundTrip(log, id, k);
  Digest d = 0;
  try {
    if (k.kind == Kind::Symbolic) {
      const gcr::Program p = gcr::apps::buildApp(k.app);
      const gcr::SymbolicReuseProfile sp =
          timed(log, "analysis.symbolic", id, [&] {
            return gcr::analyzeSymbolicReuse(p, {kSymbolicMinN});
          });
      const gcr::SymbolicReuseProfile back =
          need(codecRoundTrip(log, id, ctx.store,
                              gst::ArtifactKind::SymbolicProfile, k, sp,
                              gst::encodeSymbolicProfile,
                              gst::decodeSymbolicProfile),
               "symbolic");
      const gcr::SymbolicEvaluation e =
          timed(log, "analysis.symbolic_eval", id, [&] {
            return gcr::evaluateSymbolicProfile(back, k.n, k.timeSteps);
          });
      d = digestOf(back, e);
    } else {
      const gcr::ProgramVersion v = timed(log, "driver.version", id, [&] {
        return ctx.versions.version(gcr::apps::buildApp(k.app), k.strategy);
      });
      int s = log.open("interp.plan_compile", id);
      const gcr::DataLayout layout = v.layoutAt(k.n);
      const gcr::PlanCompileResult pc = gcr::compilePlan(
          v.program, layout, {.n = k.n, .timeSteps = k.timeSteps});
      log.close(s);
      if (!pc.ok())
        throw std::runtime_error("plan compiler declined: " + pc.reason);
      const gcr::ExecOptions opts{.n = k.n, .timeSteps = k.timeSteps};
      const auto dataBytes = static_cast<std::uint64_t>(layout.totalBytes());

      if (k.kind == Kind::Multicore) {
        s = log.open("locality.multicore", id);
        const gcr::MulticoreProfile mp =
            gcr::analyzeMulticore(*pc.plan, topology(), {}, nullptr);
        log.close(s, mp.totalRefs());
        d = digestOf(need(codecRoundTrip(log, id, ctx.store,
                                         gst::ArtifactKind::MulticoreProfile,
                                         k, mp, gst::encodeMulticoreProfile,
                                         gst::decodeMulticoreProfile),
                          "multicore"));
      } else {
        const int gen = log.open("interp.trace_gen", id);
        gcr::executePlan(*pc.plan, opts, nullptr);
        log.close(gen);
        std::vector<std::uint32_t> stream;
        stream.reserve(gcr::estimateDynamicRefs(v.program, k.n, k.timeSteps));
        s = log.open("harness.materialize", id);
        StreamSink sink(stream);
        gcr::executePlan(*pc.plan, opts, &sink);
        log.close(s, stream.size());
        log.setWork(gen, stream.size());
        if (!sink.representable())
          throw std::runtime_error("address stream exceeds 32-bit elements");

        if (k.kind == Kind::Measure) {
          const gcr::Measurement m = simulate(stream, log, id);
          stream = {};
          d = digestOf(need(codecRoundTrip(log, id, ctx.store,
                                           gst::ArtifactKind::Measurement, k,
                                           m, gst::encodeMeasurement,
                                           gst::decodeMeasurement),
                            "measurement"));
        } else {
          const gcr::ReuseProfile p =
              k.kind == Kind::Profile
                  ? exactProfile(stream, dataBytes, log, id)
                  : sampledProfile(stream, dataBytes, log, id);
          stream = {};
          d = digestOf(need(codecRoundTrip(log, id, ctx.store,
                                           gst::ArtifactKind::ReuseProfile, k,
                                           p, gst::encodeReuseProfile,
                                           gst::decodeReuseProfile),
                            "profile"));
        }
      }
    }
  } catch (const std::exception& e) {
    log.unwindTo(root);
    std::fprintf(stderr, "gcrbench: trace of %s failed: %s\n",
                 k.str().c_str(), e.what());
    ok = false;
  }
  log.close(root);
  return ok && matchesReferee(ctx.referee, k, d);
}

/// Replay a warm serve request: wire codecs around an in-process Engine
/// lookup (a disk-tier hit on first touch, a memory-tier hit after), then
/// the reply codec both ways.
bool decomposeWarm(const Key& k, std::uint64_t id, gcr::Engine& engine,
                   bool firstTouch, const Referee& referee, SpanLog& log) {
  log.requestKeys[id] = k.str();
  const int root = log.open("request", id);
  bool ok = wireRoundTrip(log, id, k);
  Digest d = 0;
  try {
    gcr::Request req;
    if (k.kind == Kind::Optimize) {
      req = gcr::PipelineRequest{gcr::apps::buildApp(k.app),
                                 gcr::pipelineOptionsFor(k.strategy)};
    } else {
      gcr::ProgramVersion v = timed(log, "driver.version", id, [&] {
        return engine.version(gcr::apps::buildApp(k.app), k.strategy);
      });
      if (k.kind == Kind::Measure)
        req = gcr::MeasureTask{std::move(v), k.n, machine(), k.timeSteps, {}};
      else
        req = gcr::ReuseTask{std::move(v), k.n, k.timeSteps};
    }
    int s = log.open(firstTouch ? "engine.disk_hit" : "engine.warm_submit",
                     id);
    const gcr::Future<gcr::Reply> f = engine.submit(std::move(req));
    const gcr::Reply& r = f.get();
    log.close(s);
    switch (k.kind) {
      case Kind::Measure:
        d = digestOf(need(
            codecRoundTrip(log, id, nullptr, gst::ArtifactKind::Measurement,
                           k, gcr::replyAs<gcr::Measurement>(r),
                           gst::encodeMeasurement, gst::decodeMeasurement),
            "measurement"));
        break;
      case Kind::Profile:
        d = digestOf(need(
            codecRoundTrip(log, id, nullptr, gst::ArtifactKind::ReuseProfile,
                           k, gcr::replyAs<gcr::ReuseProfile>(r),
                           gst::encodeReuseProfile, gst::decodeReuseProfile),
            "profile"));
        break;
      default:
        d = digestOf(need(
            codecRoundTrip(log, id, nullptr,
                           gst::ArtifactKind::PipelineResult, k,
                           gcr::replyAs<gcr::PipelineResult>(r),
                           gst::encodePipelineResult,
                           gst::decodePipelineResult),
            "pipeline"));
        break;
    }
  } catch (const std::exception& e) {
    log.unwindTo(root);
    std::fprintf(stderr, "gcrbench: trace of %s failed: %s\n",
                 k.str().c_str(), e.what());
    ok = false;
  }
  log.close(root);
  return ok && matchesReferee(referee, k, d);
}

/// Run fn(i, log) for i in [0, count) on `threads` workers, one SpanLog
/// each.
template <typename Fn>
std::vector<SpanLog> parallelDecompose(std::size_t count, int threads,
                                       Fn fn) {
  std::vector<SpanLog> logs(static_cast<std::size_t>(threads));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i; (i = next++) < count;)
        fn(i, logs[static_cast<std::size_t>(t)]);
    });
  for (std::thread& th : pool) th.join();
  return logs;
}

// --- report -----------------------------------------------------------------

constexpr const char* kLayers[] = {"driver", "interp",  "cachesim", "locality",
                                   "analysis", "engine", "store",   "server"};

struct LayerReport {
  std::map<std::string, double> seconds;  ///< per span name
  std::map<std::string, std::uint64_t> work;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> self;  ///< per layer (prefix of the name)
  std::map<std::string, std::vector<double>> warmByKind;  ///< request kind
  double requestSeconds = 0;           ///< root spans
  std::uint64_t distinctData = 0;

  double rate(const std::string& name) const {
    const auto s = seconds.find(name);
    const auto w = work.find(name);
    return s == seconds.end() || s->second <= 0
               ? 0.0
               : static_cast<double>(w->second) / s->second / 1e6;
  }
  double secondsOf(const std::string& name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  double medianOf(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
};

LayerReport aggregate(const std::vector<SpanLog>& logs) {
  LayerReport r;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        childSeconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = s.end - s.start;
      const std::string name = s.name;
      if (name == "request") {
        r.requestSeconds += dur;
        continue;
      }
      r.seconds[name] += dur;
      r.work[name] += s.work;
      r.samples[name].push_back(dur);
      if (name == "engine.warm_submit") {
        const auto key = log.requestKeys.find(s.request);
        if (key != log.requestKeys.end())
          r.warmByKind[key->second.substr(0, key->second.find('/'))]
              .push_back(dur);
      }
      r.self[name.substr(0, name.find('.'))] += dur - childSeconds[i];
    }
    r.distinctData += log.distinctData;
  }
  return r;
}

struct SideMetrics {
  double warmSubmitUs = 0;
  double diskHitUs = 0;
  double cacheHitRatio = 0;
  std::uint64_t inflightCoalesced = 0;
  double pingUs = 0;
  double busyRatio = 0;
};

void addLayerMetrics(RunResult& res, const LayerReport& r,
                     const SideMetrics& side, double tracedWall,
                     double untracedWall) {
  res.add("driver.pipeline_ms", r.secondsOf("driver.version") * 1e3, "ms");
  res.add("interp.plan_compile_ms", r.secondsOf("interp.plan_compile") * 1e3,
          "ms");
  res.add("interp.trace_gen_s", r.secondsOf("interp.trace_gen"), "s");
  res.add("interp.trace_maccess_per_s", r.rate("interp.trace_gen"), "Macc/s");
  res.add("cachesim.l1_maccess_per_s", r.rate("cachesim.l1"), "Macc/s");
  res.add("cachesim.l2_maccess_per_s", r.rate("cachesim.l2"), "Macc/s");
  res.add("cachesim.tlb_maccess_per_s", r.rate("cachesim.tlb"), "Macc/s");
  res.add("cachesim.hierarchy_maccess_per_s", r.rate("cachesim.hierarchy"),
          "Macc/s");
  res.add("cachesim.hierarchy_s", r.secondsOf("cachesim.hierarchy"), "s");
  res.add("locality.exact_tracker_maccess_per_s",
          r.rate("locality.exact_tracker"), "Macc/s");
  res.add("locality.exact_tracker_s", r.secondsOf("locality.exact_tracker"),
          "s");
  res.add("locality.sampled_tracker_maccess_per_s",
          r.rate("locality.sampled_tracker"), "Macc/s");
  res.add("locality.multicore_s", r.secondsOf("locality.multicore"), "s");
  res.add("locality.distinct_data", static_cast<double>(r.distinctData),
          "count");
  res.add("analysis.symbolic_ms", r.secondsOf("analysis.symbolic") * 1e3,
          "ms");
  res.add("analysis.symbolic_eval_us",
          r.medianOf("analysis.symbolic_eval") * 1e6, "us");
  res.add("engine.warm_submit_us", side.warmSubmitUs, "us");
  res.add("engine.disk_hit_us", side.diskHitUs, "us");
  res.add("engine.cache_hit_ratio", side.cacheHitRatio, "ratio");
  res.add("engine.inflight_coalesced",
          static_cast<double>(side.inflightCoalesced), "count");
  res.add("store.get_us", r.medianOf("store.get") * 1e6, "us");
  res.add("store.put_us", r.medianOf("store.put") * 1e6, "us");
  res.add("store.encode_us", r.medianOf("store.encode") * 1e6, "us");
  res.add("store.decode_us", r.medianOf("store.decode") * 1e6, "us");
  {
    const auto it = r.samples.find("store.encode");
    const double n = it == r.samples.end()
                         ? 0.0
                         : static_cast<double>(it->second.size());
    const auto w = r.work.find("store.encode");
    res.add("store.payload_bytes",
            n > 0 ? static_cast<double>(w->second) / n : 0.0, "bytes");
  }
  res.add("server.frame_encode_us", r.medianOf("server.frame_encode") * 1e6,
          "us");
  res.add("server.frame_decode_us", r.medianOf("server.frame_decode") * 1e6,
          "us");
  res.add("server.ping_roundtrip_us", side.pingUs, "us");
  res.add("server.busy_ratio", side.busyRatio, "ratio");

  double covered = 0;
  for (const char* layer : kLayers) {
    const auto it = r.self.find(layer);
    const double self = it == r.self.end() ? 0.0 : it->second;
    covered += self;
    res.add(std::string("self.") + layer + "_s", self, "s");
  }
  const auto harness = r.self.find("harness");
  res.add("self.harness_s", harness == r.self.end() ? 0.0 : harness->second,
          "s");
  res.add("trace.coverage",
          r.requestSeconds > 0 ? covered / r.requestSeconds : 0.0, "ratio");
  res.add("trace.traced_wall_s", tracedWall, "s");
  res.add("trace.untraced_wall_s", untracedWall, "s");
  res.add("trace.overhead_s", tracedWall - untracedWall, "s");
}

void writeSpans(const std::string& path, const std::vector<SpanLog>& logs,
                double origin) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (std::size_t t = 0; t < logs.size(); ++t)
    for (const Span& s : logs[t].spans()) {
      const auto key = logs[t].requestKeys.find(s.request);
      out << "{\"name\": \"" << s.name << "\", \"key\": \""
          << (key == logs[t].requestKeys.end() ? "" : key->second)
          << "\", \"worker\": " << t
          << ", \"request\": " << s.request << ", \"parent\": " << s.parent
          << ", \"start_us\": " << std::llround((s.start - origin) * 1e6)
          << ", \"end_us\": " << std::llround((s.end - origin) * 1e6)
          << ", \"work\": " << s.work << "}\n";
    }
  std::printf("  spans written to %s\n", path.c_str());
}

void printLayerSummary(const RunResult& res) {
  std::printf("  layer self times (s):");
  for (const Metric& m : res.metrics)
    if (m.name.rfind("self.", 0) == 0)
      std::printf(" %s=%.4g", m.name.c_str() + 5, m.value);
  std::printf("\n");
}

}  // namespace

RunResult runSweepTraced(Sweep sweep, std::uint64_t seed,
                         const Referee& referee, const std::string& workDir,
                         const std::string& tracePath) {
  RunResult res;
  // The untraced reference: batch 0 of the timed run, same seed.
  const SweepBatch batch = runSweepBatch(sweep, seed, 0, workers(), referee);
  res.attempted += batch.attempted;
  res.failed += batch.failed;

  const std::vector<Key> keys = sweepBatchKeys(sweep, seed, 0);
  gcr::Engine versions(engineConfig(1, 1.0));
  gst::ArtifactStore::Options so;
  so.dir = workDir + "/trace-store";
  so.fsync = true;
  const std::unique_ptr<gst::ArtifactStore> store =
      gst::ArtifactStore::open(so);
  ColdContext ctx{versions, store.get(), referee};
  std::atomic<std::uint64_t> failed{0};
  const double t0 = now();
  const std::vector<SpanLog> logs =
      parallelDecompose(keys.size(), workers(), [&](std::size_t i,
                                                    SpanLog& log) {
        if (!decomposeCold(keys[i], i, ctx, log)) ++failed;
      });
  const double tracedWall = now() - t0;
  res.attempted += keys.size();
  res.failed += failed.load();
  if (store == nullptr) ++res.failed;

  SideMetrics side;
  side.warmSubmitUs = median(batch.warmLatency) * 1e6;
  side.cacheHitRatio = batch.cacheHitRatio;
  side.inflightCoalesced = batch.inflightCoalesced;
  addLayerMetrics(res, aggregate(logs), side, tracedWall, batch.wallSeconds);

  std::printf("traced %s: %zu requests decomposed on %d workers, seed %llu\n",
              sweep == Sweep::Sim ? "sim_sweep" : "profile_sweep",
              keys.size(), workers(), static_cast<unsigned long long>(seed));
  std::printf("  untraced batch %.4f s, traced %.4f s\n", batch.wallSeconds,
              tracedWall);
  printLayerSummary(res);
  writeSpans(tracePath, logs, t0);
  return res;
}

RunResult runServeTraced(const ServeConfig& cfg, std::uint64_t seed,
                         const Referee& referee,
                         const std::string& tracePath) {
  RunResult res;
  ServeProbe probe;
  const ServeRound round = runServeRound(cfg, seed, 0, referee, &probe);
  res.attempted += round.attempted;
  res.failed += round.failed;
  if (probe.storeDir.empty()) {
    ++res.failed;
    return res;
  }

  // An in-process Engine over the round's warm store answers the warm
  // requests exactly as the daemon did: disk tier first, memory after.
  gcr::Engine engine(engineConfig(workers(), 1.0, probe.storeDir));
  std::vector<SpanLog> logs(1);
  std::uint64_t failed = 0;
  std::set<std::string> touched;
  std::vector<std::pair<std::uint64_t, Key>> cold;
  std::uint64_t id = 0;
  const double t0 = now();
  for (const std::vector<ServeItem>& client : round.items)
    for (const ServeItem& item : client) {
      if (item.cold) {
        cold.emplace_back(id++, item.key);
        continue;
      }
      const bool first = touched.insert(item.key.str()).second;
      if (!decomposeWarm(item.key, id++, engine, first, referee, logs[0]))
        ++failed;
    }
  gst::ArtifactStore::Options so;
  so.dir = cfg.workDir + "/trace-store";
  so.fsync = true;
  const std::unique_ptr<gst::ArtifactStore> store =
      gst::ArtifactStore::open(so);
  ColdContext ctx{engine, store.get(), referee};
  std::atomic<std::uint64_t> coldFailed{0};
  std::vector<SpanLog> coldLogs =
      parallelDecompose(cold.size(), workers(), [&](std::size_t i,
                                                    SpanLog& log) {
        if (!decomposeCold(cold[i].second, cold[i].first, ctx, log))
          ++coldFailed;
      });
  const double tracedWall = now() - t0;
  for (SpanLog& l : coldLogs) logs.push_back(std::move(l));
  res.attempted += id;
  res.failed += failed + coldFailed.load();
  if (store == nullptr) ++res.failed;

  const LayerReport report = aggregate(logs);
  SideMetrics side;
  side.warmSubmitUs = report.medianOf("engine.warm_submit") * 1e6;
  side.diskHitUs = report.medianOf("engine.disk_hit") * 1e6;
  side.cacheHitRatio = probe.cacheHitRatio;
  side.inflightCoalesced = probe.inflightCoalesced;
  side.pingUs = median(probe.pingSeconds) * 1e6;
  side.busyRatio = probe.busyRatio;
  addLayerMetrics(res, report, side, tracedWall, round.wallSeconds);

  std::printf("traced serve_mixed: round 0, %llu requests (%zu cold), seed "
              "%llu\n",
              static_cast<unsigned long long>(id), cold.size(),
              static_cast<unsigned long long>(seed));
  std::printf("  untraced round %.4f s, traced %.4f s\n", round.wallSeconds,
              tracedWall);
  printLayerSummary(res);
  std::printf("  engine.warm_submit by request kind:");
  for (const auto& [kind, v] : report.warmByKind)
    std::printf(" %s %.4g us (n=%zu)", kind.c_str(), median(v) * 1e6, v.size());
  std::printf("\n");
  writeSpans(tracePath, logs, t0);
  std::error_code ec;
  std::filesystem::remove_all(
      std::filesystem::path(probe.storeDir).parent_path(), ec);
  return res;
}

}  // namespace gcrbench
