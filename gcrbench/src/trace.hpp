// The traced run: per-layer numbers for one batch (sweeps) or one round
// (serve_mixed) of a workload, with the same seed as the timed run.
//
// Each request is replayed as its layers call one another — Engine::version,
// compilePlan, executePlan without a sink, then the materialized address
// stream through each cache model and tracker on its own, then the store
// codecs, store put/get in a scratch store and the wire codecs.  Spans are
// recorded from the benchmark's own files around those public calls (name,
// start, end, parent, request id), kept in memory per worker and written out
// when the run ends.  A layer's self time is its spans minus their children.
// Every replayed request's digest is checked against the referee, so the
// trace measures the same work as the timed run.
#pragma once

#include <cstdint>
#include <string>

#include "referee.hpp"
#include "serve.hpp"
#include "stats.hpp"
#include "sweeps.hpp"

namespace gcrbench {

RunResult runSweepTraced(Sweep sweep, std::uint64_t seed,
                         const Referee& referee, const std::string& workDir,
                         const std::string& tracePath);

RunResult runServeTraced(const ServeConfig& cfg, std::uint64_t seed,
                         const Referee& referee, const std::string& tracePath);

}  // namespace gcrbench
