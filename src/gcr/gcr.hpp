// Umbrella header: the public API of the gcr (global cache reuse) library.
//
// Layers, bottom-up:
//   ir/        the loop-program input language (Figure 5, multi-dimensional)
//   interp/    exact interpreter + dynamic traces + data layouts
//   locality/  reuse-distance analysis, multicore locality
//   cachesim/  set-associative caches, TLB, machine configs, cost model
//   reuse_driven/  the Section 2.2 limit study (Figure 2 algorithm)
//   xform/     pre-passes: distribution, unrolling, array splitting
//   analysis/  static dependence analysis, legality checking (gcr-verify),
//              closed-form symbolic reuse profiles (the static estimator)
//   fusion/    reuse-based loop fusion (Figure 6)
//   regroup/   multi-level data regrouping (Figures 7-8)
//   driver/    the full pipeline, program versions, measurement harness
//   store/     persistent content-addressed artifact store (the disk
//              cache tier: crash-safe publication, mmap zero-copy loads)
//   engine/    the session runtime: content-addressed caching + async
//              batch scheduling behind one API (gcr::Engine)
//   apps/      the paper's benchmark programs (Figure 9)
#pragma once

#include "analysis/adversarial.hpp"
#include "analysis/dependence.hpp"
#include "analysis/legality.hpp"
#include "analysis/symbolic_reuse.hpp"
#include "analysis/symexpr.hpp"
#include "apps/registry.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/topology.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "engine/engine.hpp"
#include "engine/future.hpp"
#include "engine/lru_cache.hpp"
#include "engine/signature.hpp"
#include "fusion/align.hpp"
#include "fusion/atoms.hpp"
#include "fusion/fusion.hpp"
#include "fusion/legal.hpp"
#include "interp/interp.hpp"
#include "interp/layout.hpp"
#include "interp/trace.hpp"
#include "ir/builder.hpp"
#include "ir/diagnostic.hpp"
#include "ir/ir.hpp"
#include "ir/print.hpp"
#include "ir/stats.hpp"
#include "ir/validate.hpp"
#include "interp/plan.hpp"
#include "interp/schedule.hpp"
#include "locality/multicore.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/sampled_reuse.hpp"
#include "regroup/regroup.hpp"
#include "reuse_driven/reuse_driven.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "support/affine.hpp"
#include "support/serialize.hpp"
#include "support/histogram.hpp"
#include "support/table.hpp"
#include "xform/distribute.hpp"
#include "xform/interchange.hpp"
#include "xform/unroll_split.hpp"
