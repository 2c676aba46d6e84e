// gcr-verify — static legality lint over the bundled applications.
//
// Runs the affine dependence analyzer, the strict IR validator, and every
// transform pass's legality checker (consultation mode) over a program, and
// prints the diagnostics in the greppable `program:loc:ref` format.  With
// --pipeline it additionally runs the full optimization pipeline (which
// consults the same checkers before each transform) and re-verifies the
// transformed program, so a pass that applied an illegal transform is caught
// on its own output.
//
//   gcr-verify --all [--pipeline] [--werror] [--json] [--minn K] [--notes K]
//   gcr-verify --app Swim ...
//   gcr-verify --adversarial      # self-test: every known-illegal case in
//                                 # the corpus must be refused with the
//                                 # documented (pass, rule) citation
//   gcr-verify --symbolic         # closed-form reuse profiles: per-site
//                                 # formulas, bail-out reasons, and the
//                                 # symbolic-vs-dynamic agreement report
//   gcr-verify --multicore        # shared-LLC CDF composition vs the exact
//                                 # interleaved referee at 2/4/8 cores
//
// Exit status: 0 clean; 1 legality violation (errors, or warnings under
// --werror, or a missed adversarial refusal, or — under --symbolic /
// --multicore --werror — a model-vs-referee geomean CDF error above 0.10 or
// a bailed symbolic site); 2 usage error.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gcr/gcr.hpp"
#include "server/client.hpp"
#include "support/json.hpp"

using namespace gcr;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gcr-verify [--all | --app <name> | --adversarial] [options]\n"
      "  --all             verify every bundled application (default)\n"
      "  --app <name>      verify one app (ADI|Swim|Tomcatv|SP|Sweep3D)\n"
      "  --adversarial     self-test against the known-illegal corpus\n"
      "  --symbolic        closed-form reuse formulas + symbolic-vs-dynamic\n"
      "                    agreement report (with --werror: gate geomean CDF\n"
      "                    error <= 0.10 and no bailed site)\n"
      "  --multicore       shared-LLC model vs exact interleaved referee at\n"
      "                    2/4/8 cores (with --werror: gate geomean CDF\n"
      "                    error <= 0.10)\n"
      "  --pipeline        also optimize and re-verify the result\n"
      "  --werror          treat warnings as errors\n"
      "  --json            machine-readable output (one JSON array)\n"
      "  --minn <k>        legality domain: exact for all N >= k, a positive\n"
      "                    integer (default 16); --symbolic probes sizes >= k\n"
      "  --notes <k>       print up to k per-pair dependence notes\n"
      "  --store-stats <dir>  dump a persistent artifact store's header and\n"
      "                    entry inventory (full validation scan) as JSON\n"
      "  --server <addr>   ping a running gcr-server (unix:<path>,\n"
      "                    tcp:<host>:<port>, or a bare socket path) and\n"
      "                    print its engine/store counters as JSON\n");
}

struct Options {
  bool pipeline = false;
  bool werror = false;
  bool json = false;
  std::int64_t minN = 16;
  int notes = 0;
};

/// Session Engine for --pipeline runs: verifying the same app twice (or an
/// app that appears in several name lists) reuses the cached pipeline run.
Engine& sessionEngine() {
  static Engine engine;
  return engine;
}

/// Verify one program; returns all diagnostics (prints nothing).
std::vector<Diagnostic> verifyOne(const Program& p, const std::string& name,
                                  const Options& o) {
  VerifyOptions vo;
  vo.minN = o.minN;
  vo.maxDependenceNotes = o.notes;
  std::vector<Diagnostic> diags = verifyProgram(p, name, vo).diags;
  if (o.pipeline) {
    PipelineOptions po;
    po.fusionOptions.minN = o.minN;
    PipelineResult r = sessionEngine().pipeline(p, po);
    appendDiagnostics(diags, r.diagnostics);
    appendDiagnostics(diags,
                      verifyProgram(r.program, name + "+opt", vo).diags);
  }
  return diags;
}

void printText(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags)
    std::printf("%s\n", d.format().c_str());
}

void printJson(const std::vector<Diagnostic>& diags) {
  // Versioned envelope (satellite of the symbolic-engine PR): schema
  // "gcr-verify/2".  /1 was the bare diagnostic array, which consumers could
  // not distinguish from any other JSON list.
  int notes = 0, warnings = 0, errors = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::Error) ++errors;
    else if (d.severity == Severity::Warning) ++warnings;
    else ++notes;
  }
  std::printf("{\n \"schema\": \"gcr-verify/2\",\n \"diagnostics\": [");
  for (std::size_t i = 0; i < diags.size(); ++i)
    std::printf("%s%s", i ? ",\n  " : "\n  ", diags[i].json().c_str());
  std::printf("%s],\n", diags.empty() ? "" : "\n ");
  std::printf(" \"notes\": %d,\n \"warnings\": %d,\n \"errors\": %d\n}\n",
              notes, warnings, errors);
}

int runVerify(const std::vector<std::string>& names, const Options& o) {
  std::vector<Diagnostic> all;
  for (const std::string& name : names) {
    const Program p = apps::buildApp(name);
    appendDiagnostics(all, verifyOne(p, name, o));
  }
  if (o.json)
    printJson(all);
  else
    printText(all);
  const bool bad = o.werror ? anyWarningsOrErrors(all) : anyErrors(all);
  if (!o.json) {
    int notes = 0, warnings = 0, errors = 0;
    for (const Diagnostic& d : all) {
      if (d.severity == Severity::Error) ++errors;
      else if (d.severity == Severity::Warning) ++warnings;
      else ++notes;
    }
    std::printf("gcr-verify: %zu program(s), %d note(s), %d warning(s), "
                "%d error(s)%s\n",
                names.size(), notes, warnings, errors,
                bad ? " -- FAILED" : "");
  }
  return bad ? 1 : 0;
}

int runAdversarial(const Options& o) {
  int missed = 0;
  for (const AdversarialCase& c : adversarialCases()) {
    const std::vector<Diagnostic> diags = c.check(c.program, o.minN);
    const bool refused = cites(diags, c.pass, c.rule);
    if (!o.json)
      std::printf("%-32s expect [%s/%s]  %s\n", c.name.c_str(),
                  c.pass.c_str(), c.rule.c_str(),
                  refused ? "refused (ok)" : "ACCEPTED (bug)");
    if (!refused) {
      ++missed;
      printText(diags);  // show what came back instead
    }
  }
  if (!o.json)
    std::printf("gcr-verify: adversarial corpus %s\n",
                missed ? "FAILED" : "clean");
  return missed ? 1 : 0;
}

/// --symbolic: run the closed-form locality analysis over each program,
/// print every site's formula (or its bail-out reason), and score the
/// symbolic histograms against exact dynamic profiles at a few sizes.
/// Under --werror the geomean CDF error across all (program, size) pairs
/// must stay within the documented 0.10 gate, and no site may bail: a
/// bailed site's mass is excluded from the evaluation, so its program's
/// score would not cover the whole profile.
int runSymbolic(const std::vector<std::string>& names, const Options& o) {
  constexpr double kGate = 0.10;
  Engine& engine = sessionEngine();

  double logSum = 0.0;
  int pairs = 0;
  std::uint64_t totalBailed = 0;
  std::map<std::string, std::uint64_t> reasons;

  JsonWriter j;
  if (o.json) {
    j.beginObject();
    j.field("schema", "gcr-verify-symbolic/2");
    j.field("min_n", o.minN);
    j.key("programs").beginArray();
  }

  for (const std::string& name : names) {
    const Program p = apps::buildApp(name);
    const SymbolicReuseProfile sym =
        engine.symbolicProfile(p, {.minN = o.minN});
    totalBailed += sym.bailedSites();
    for (const auto& [reason, n] : sym.bailoutCounts()) reasons[reason] += n;

    if (o.json) {
      j.beginObject();
      j.field("program", std::string_view(name));
      j.field("fully_symbolic", sym.fullySymbolic());
      j.field("bailed_sites", sym.bailedSites());
      j.field("imprecise_sites", sym.impreciseSites());
      if (sym.footprint.valid())
        j.field("footprint", std::string_view(sym.footprint.str()));
      j.key("sites").beginArray();
    } else {
      std::printf("%s: %zu site(s), %llu bailed, %llu imprecise, "
                  "footprint = %s\n",
                  name.c_str(), sym.sites.size(),
                  static_cast<unsigned long long>(sym.bailedSites()),
                  static_cast<unsigned long long>(sym.impreciseSites()),
                  sym.footprint.valid() ? sym.footprint.str().c_str() : "-");
    }
    for (std::size_t i = 0; i < sym.sites.size(); ++i) {
      const SymbolicSiteInfo& s = sym.sites[i];
      const SymbolicSiteProfile& e = sym.perSite[i];
      if (o.json) {
        j.beginObject();
        j.field("loc", std::string_view(s.loc));
        j.field("ref", std::string_view(s.text));
        j.field("class", reuseClassName(e.cls));
        if (e.bailout != SymbolicBailout::None)
          j.field("bailout", symbolicBailoutName(e.bailout));
        if (e.distance.valid())
          j.field("distance", std::string_view(e.distance.str()));
        if (e.count.valid())
          j.field("count", std::string_view(e.count.str()));
        if (e.degree.has_value()) j.field("degree", *e.degree);
        j.field("evadable", e.evadable);
        j.endObject();
      } else if (e.bailout != SymbolicBailout::None) {
        std::printf("  %s:%s:%s  BAILED (%s)\n", name.c_str(), s.loc.c_str(),
                    s.text.c_str(), symbolicBailoutName(e.bailout));
      } else {
        std::printf("  %s:%s:%s  %s  distance=%s  count=%s%s%s\n",
                    name.c_str(), s.loc.c_str(), s.text.c_str(),
                    reuseClassName(e.cls),
                    e.distance.valid() ? e.distance.str().c_str() : "-",
                    e.count.valid() ? e.count.str().c_str() : "-",
                    e.evadable ? "  evadable" : "",
                    e.imprecise ? "  imprecise" : "");
      }
    }
    if (o.json) {
      j.endArray();
      j.key("agreement").beginArray();
    }

    // Agreement: symbolic vs the exact dynamic profile at each probe size.
    // Probe sizes scale with nesting depth — the exact referee's cost grows
    // with n^depth, so a 3D nest is probed at NAS-class sizes just like the
    // fig9 suite runs it — and shift up together so the smallest is at
    // least minN, where the formulas start to hold.
    const bool deepNest = computeStats(p).maxLevel >= 3;
    std::vector<std::int64_t> probeSizes =
        deepNest ? std::vector<std::int64_t>{16, 24, 32}
                 : std::vector<std::int64_t>{48, 64, 96};
    const std::int64_t shift =
        std::max<std::int64_t>(0, o.minN - probeSizes.front());
    for (std::int64_t& n : probeSizes) n += shift;
    for (const std::int64_t n : probeSizes) {
      const DataLayout layout = contiguousLayout(p, n);
      const SymbolicEvaluation ev = evaluateSymbolicProfile(sym, n);
      ReuseDistanceSink sink(8);
      sink.reserve(static_cast<std::uint64_t>(layout.totalBytes()));
      trace(p, layout, {.n = n}, sink);
      const ReuseProfile measured = sink.profile();
      const ProfileComparison c =
          compareHistograms(ev.histogram, measured.histogram);
      logSum += std::log(std::max(c.avgCdfError, 1e-6));
      ++pairs;
      if (o.json) {
        j.beginObject();
        j.field("n", n);
        j.field("symbolic_accesses", ev.accesses);
        j.field("measured_accesses", measured.accesses);
        j.field("avg_cdf_error", c.avgCdfError, 4);
        j.endObject();
      } else {
        std::printf("  n=%-4lld avg CDF error %.4f\n",
                    static_cast<long long>(n), c.avgCdfError);
      }
    }
    if (o.json) {
      j.endArray();
      j.endObject();
    }
  }

  const double geomean = pairs ? std::exp(logSum / pairs) : 0.0;
  const bool gateOk = geomean <= kGate && totalBailed == 0;
  const bool bad = o.werror && !gateOk;
  if (o.json) {
    j.endArray();
    j.key("bailout_counts").beginObject();
    for (const auto& [reason, n] : reasons)
      j.field(std::string_view(reason), n);
    j.endObject();
    j.field("geomean_cdf_error", geomean, 4);
    j.field("gate", kGate, 2);
    j.field("gate_ok", gateOk);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("gcr-verify: %zu program(s), %llu bailed site(s), geomean "
                "CDF error %.4f (gate %.2f)%s\n",
                names.size(), static_cast<unsigned long long>(totalBailed),
                geomean, kGate, bad ? " -- FAILED" : "");
  }
  return bad ? 1 : 0;
}

/// --multicore: score the multicore locality engine's composed shared-LLC
/// prediction against the exact interleaved-trace referee for every
/// registry app at 2, 4 and 8 cores (both static schedules on the original
/// and the fully-optimized program).  Under --werror the geomean avg CDF
/// error across all cases must stay within the same 0.10 gate the symbolic
/// and static estimators are held to.
int runMulticore(const std::vector<std::string>& names, const Options& o) {
  constexpr double kGate = 0.10;
  Engine& engine = sessionEngine();

  double logSum = 0.0;
  int cases = 0;
  double worst = 0.0;

  JsonWriter j;
  if (o.json) {
    j.beginObject();
    j.field("schema", "gcr-verify-multicore/1");
    j.key("cases").beginArray();
  }

  for (const std::string& name : names) {
    const Program p = apps::buildApp(name);
    // The exact referee materializes the interleaved trace: probe 3D nests
    // at NAS-class sizes, 2D ones a step larger (same policy as --symbolic).
    const bool deepNest = computeStats(p).maxLevel >= 3;
    const std::int64_t n = deepNest ? 12 : 24;

    for (const Strategy strategy : {Strategy::NoOpt, Strategy::Fused}) {
      const std::string vname = versionNameFor(strategy);
      const ProgramVersion v = engine.version(p, strategy);
      const DataLayout layout = v.layoutAt(n);
      const PlanCompileResult c = compilePlan(v.program, layout, {.n = n});
      if (!c.ok()) {
        std::fprintf(stderr, "gcr-verify: %s/%s does not compile to a plan: "
                             "%s\n",
                     name.c_str(), vname.c_str(), c.reason.c_str());
        return 2;
      }
      for (const int cores : {2, 4, 8}) {
        for (const ParallelSchedule sched :
             {ParallelSchedule::Block, ParallelSchedule::Cyclic}) {
          const CacheTopology topo = CacheTopology::symmetric(cores, sched);
          const MulticoreProfile model = engine.multicoreProfile(v, n, topo);
          const ReuseProfile exact = interleavedSharedProfile(*c.plan, topo);
          const ProfileComparison cmp =
              compareHistograms(model.shared, exact.histogram);
          logSum += std::log(std::max(cmp.avgCdfError, 1e-6));
          worst = std::max(worst, cmp.avgCdfError);
          ++cases;
          if (o.json) {
            j.beginObject();
            j.field("program", std::string_view(name));
            j.field("strategy", std::string_view(vname));
            j.field("cores", std::int64_t{cores});
            j.field("schedule", parallelScheduleName(sched));
            j.field("n", n);
            j.field("shared_accesses", model.sharedAccesses);
            j.field("llc_miss_fraction", model.llcMissFraction, 4);
            j.field("avg_cdf_error", cmp.avgCdfError, 4);
            j.endObject();
          } else {
            std::printf("%s/%s cores=%d %-6s n=%-4lld avg CDF error %.4f "
                        "(LLC miss fraction %.4f)\n",
                        name.c_str(), vname.c_str(), cores,
                        parallelScheduleName(sched),
                        static_cast<long long>(n), cmp.avgCdfError,
                        model.llcMissFraction);
          }
        }
      }
    }
  }

  const double geomean = cases ? std::exp(logSum / cases) : 0.0;
  const bool gateOk = geomean <= kGate;
  const bool bad = o.werror && !gateOk;
  if (o.json) {
    j.endArray();
    j.field("geomean_cdf_error", geomean, 4);
    j.field("max_cdf_error", worst, 4);
    j.field("gate", kGate, 2);
    j.field("gate_ok", gateOk);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("gcr-verify: %d multicore case(s), geomean CDF error %.4f "
                "(max %.4f, gate %.2f)%s\n",
                cases, geomean, worst, kGate, bad ? " -- FAILED" : "");
  }
  return bad ? 1 : 0;
}

/// --store-stats: validate every entry of an on-disk artifact store and
/// dump the inventory as one JSON object (the operator's view of what
/// GCR_CACHE_DIR currently holds, and whether any of it is corrupt).
int runStoreStats(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "gcr-verify: %s is not a directory\n", dir.c_str());
    return 2;
  }
  store::ArtifactStore::Options opts;
  opts.dir = dir;
  const auto s = store::ArtifactStore::open(opts);
  if (s == nullptr) {
    std::fprintf(stderr, "gcr-verify: cannot open store at %s\n", dir.c_str());
    return 2;
  }

  const std::vector<store::ArtifactStore::EntryInfo> entries = s->scan();
  std::uint64_t validCount = 0, totalBytes = 0;
  JsonWriter j;
  j.beginObject();
  j.field("store_dir", std::string_view(dir));
  j.field("format_version", std::uint64_t{store::kFormatVersion});
  j.field("header_bytes", std::uint64_t{store::kHeaderBytes});
  j.key("entries").beginArray();
  for (const auto& e : entries) {
    totalBytes += e.fileBytes;
    if (e.valid) ++validCount;
    j.beginObject();
    j.field("file", std::string_view(e.file));
    j.field("file_bytes", e.fileBytes);
    j.field("valid", e.valid);
    if (e.headerDecoded) {
      j.field("entry_format_version", std::uint64_t{e.header.formatVersion});
      j.field("kind", store::artifactKindName(e.header.kind));
      j.field("signature", std::string_view(e.header.signature.str()));
      j.field("payload_bytes", e.header.payloadBytes);
    }
    j.endObject();
  }
  j.endArray();
  j.field("total_entries", std::uint64_t{entries.size()});
  j.field("valid_entries", validCount);
  j.field("corrupt_entries", std::uint64_t{entries.size()} - validCount);
  j.field("total_bytes", totalBytes);
  j.endObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

void putCacheCounters(JsonWriter& j, const char* name,
                      const CacheCounters& c) {
  j.key(name).beginObject();
  j.field("hits", c.hits);
  j.field("misses", c.misses);
  j.field("evictions", c.evictions);
  j.field("entries", c.entries);
  j.endObject();
}

/// --server: connect to a running daemon as tenant "gcr-verify", fetch its
/// Stats reply, and print the counters as one JSON object — the operator's
/// liveness + observability ping (served even while the server drains).
int runServerPing(const std::string& address) {
  std::string error;
  const std::unique_ptr<server::Client> client =
      server::Client::connect(address, "gcr-verify", &error);
  if (client == nullptr) {
    std::fprintf(stderr, "gcr-verify: %s\n", error.c_str());
    return 2;
  }
  const server::Result<server::StatsReply> stats = client->stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "gcr-verify: stats request failed: %s\n",
                 stats.message.c_str());
    return 2;
  }

  JsonWriter j;
  j.beginObject();
  j.field("schema", "gcr-server-stats/2");
  j.field("address", std::string_view(address));
  j.field("server_name", std::string_view(client->serverName()));
  j.field("cache_dir", std::string_view(stats->cacheDir));

  j.key("server").beginObject();
  const server::ServerCounters& s = stats->server;
  j.field("connections_accepted", s.connectionsAccepted);
  j.field("connections_rejected", s.connectionsRejected);
  j.field("requests_admitted", s.requestsAdmitted);
  j.field("requests_busy_rejected", s.requestsBusyRejected);
  j.field("requests_errored", s.requestsErrored);
  j.field("framing_errors", s.framingErrors);
  j.field("replies_sent", s.repliesSent);
  j.field("draining", s.draining);
  j.endObject();

  j.key("tenants").beginArray();
  for (const server::TenantStats& t : stats->tenants) {
    j.beginObject();
    j.field("tenant", std::string_view(t.tenant));
    j.field("admitted", t.admitted);
    j.field("busy_rejected", t.busyRejected);
    j.endObject();
  }
  j.endArray();

  const Engine::Stats& e = stats->engine;
  j.key("engine").beginObject();
  putCacheCounters(j, "pipeline", e.pipeline);
  putCacheCounters(j, "plan", e.plan);
  putCacheCounters(j, "measurement", e.measurement);
  putCacheCounters(j, "profile", e.profile);
  putCacheCounters(j, "symbolic", e.symbolic);
  putCacheCounters(j, "multicore", e.multicore);
  j.field("inflight_coalesced", e.inflightCoalesced);
  j.endObject();

  j.key("store").beginObject();
  j.field("hits", e.store.hits);
  j.field("misses", e.store.misses);
  j.field("puts", e.store.puts);
  j.field("put_failures", e.store.putFailures);
  j.field("corrupt_rejected", e.store.corruptRejected);
  j.field("evictions", e.store.evictions);
  j.field("bytes_loaded", e.store.bytesLoaded);
  j.field("bytes_stored", e.store.bytesStored);
  j.endObject();

  j.endObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool adversarial = false;
  bool symbolic = false;
  bool multicore = false;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--all") {
      // default
    } else if (arg == "--app") {
      names.push_back(value());
    } else if (arg == "--adversarial") {
      adversarial = true;
    } else if (arg == "--symbolic") {
      symbolic = true;
    } else if (arg == "--multicore") {
      multicore = true;
    } else if (arg == "--pipeline") {
      o.pipeline = true;
    } else if (arg == "--werror") {
      o.werror = true;
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--minn") {
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      o.minN = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0' || errno != 0 || o.minN <= 0) {
        usage();
        return 2;
      }
    } else if (arg == "--notes") {
      o.notes = std::atoi(value());
    } else if (arg == "--store-stats") {
      return runStoreStats(value());
    } else if (arg == "--server") {
      return runServerPing(value());
    } else {
      usage();
      return 2;
    }
  }

  try {
    if (adversarial) return runAdversarial(o);
    if (names.empty())
      for (const apps::AppInfo& a : apps::evaluationApps())
        names.push_back(a.name);
    if (symbolic) return runSymbolic(names, o);
    if (multicore) return runMulticore(names, o);
    return runVerify(names, o);
  } catch (const Error& e) {
    std::fprintf(stderr, "gcr-verify: %s\n", e.what());
    return 2;
  }
}
