// The typed request surface of Engine::submit().
//
// Every kind of work an Engine schedules is one alternative of the tagged
// gcr::Request variant; the matching result is the same-index alternative of
// gcr::Reply.  The tag is shared across layers: requestKind() maps each
// alternative to the store::ArtifactKind the result persists under, and the
// gcr-server wire protocol derives its message kinds from the same enum —
// one artifact taxonomy for the API, the disk tier and the wire.
//
// Request and Reply are move-only (Program is move-only); clone() into a
// request.  A Reply obtained from Future<Reply>::get() is shared with every
// coalesced waiter and later cache hit — read it via replyAs<T>() and copy
// (or clone()) out.
#pragma once

#include <cstdint>
#include <variant>

#include "analysis/symbolic_reuse.hpp"
#include "cachesim/topology.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/multicore.hpp"
#include "store/format.hpp"
#include "support/assert.hpp"

namespace gcr {

/// An asynchronous pipeline run: the program to optimize plus the pass
/// configuration.
struct PipelineRequest {
  Program program;
  PipelineOptions options;
};

/// An asynchronous symbolic reuse analysis (analysis/symbolic_reuse.hpp).
/// The result is size-independent, so one cached profile answers every
/// problem size of the program — sweeps re-evaluate formulas, not traces.
struct SymbolicProfileRequest {
  Program program;
  SymbolicReuseOptions options;
};

/// A multicore locality analysis (locality/multicore.hpp): per-core private
/// L1/L2 simulation under the topology's static schedule plus the composed
/// shared-LLC prediction.  Requires the plan engine (every shipped app
/// qualifies); a program the plan compiler declines fails the request.
struct MulticoreTask {
  ProgramVersion version;
  std::int64_t n = 16;
  CacheTopology topology;
  std::uint64_t timeSteps = 1;
  MulticoreCostModel cost = {};
};

/// One unit of Engine work.  Alternative i produces Reply alternative i.
using Request = std::variant<PipelineRequest, MeasureTask, ReuseTask,
                             SymbolicProfileRequest, MulticoreTask>;

/// The result of a Request, same alternative order.
using Reply = std::variant<PipelineResult, Measurement, ReuseProfile,
                           SymbolicReuseProfile, MulticoreProfile>;

/// The artifact kind a request's result is content-addressed under — the one
/// artifact taxonomy shared by the API, the persistent store and the server
/// wire protocol.
inline store::ArtifactKind requestKind(const Request& r) {
  struct Visitor {
    store::ArtifactKind operator()(const PipelineRequest&) const {
      return store::ArtifactKind::PipelineResult;
    }
    store::ArtifactKind operator()(const MeasureTask&) const {
      return store::ArtifactKind::Measurement;
    }
    store::ArtifactKind operator()(const ReuseTask&) const {
      return store::ArtifactKind::ReuseProfile;
    }
    store::ArtifactKind operator()(const SymbolicProfileRequest&) const {
      return store::ArtifactKind::SymbolicProfile;
    }
    store::ArtifactKind operator()(const MulticoreTask&) const {
      return store::ArtifactKind::MulticoreProfile;
    }
  };
  return std::visit(Visitor{}, r);
}

/// Checked accessor: the reply's T alternative, or gcr::Error when the reply
/// holds a different kind (a submit()/get() pair that lost track of its
/// request type is a programming error, not a silent valueless read).
template <typename T>
const T& replyAs(const Reply& r) {
  const T* v = std::get_if<T>(&r);
  GCR_CHECK(v != nullptr, "Reply holds a different artifact kind");
  return *v;
}

}  // namespace gcr
