// Vector comparison.
//
// COMPARE (Algorithm 1) decides =, ≺, ≻ or ‖ between two rotating vectors by
// looking only at the two front elements — O(1) time and, on the wire,
// 2·log(mn) bits (each site sends its ⌊v⌋ to the other; §3.3).
//
// It is valid on "at-rest" vectors: vectors produced by local updates,
// overwrite synchronizations, and reconciliations that were followed by the
// mandated local increment ([11 §C], §2.2). In such vectors the front element
// always dominates the vector, which is what the algorithm exploits
// ([21, Lemma 3.4]).
#pragma once

#include "common/cost_model.h"
#include "vv/order.h"
#include "vv/rotating_vector.h"
#include "vv/version_vector.h"

namespace optrep::vv {

// Algorithm 1. Empty vectors (objects with no recorded updates yet) compare
// as causally-before any non-empty vector and equal to another empty one.
Ordering compare_fast(const RotatingVector& a, const RotatingVector& b);

// Bits exchanged by the COMPARE protocol: one (site, value) probe each way.
inline std::uint64_t compare_cost_bits(const CostModel& cm) {
  return 2 * cm.compare_probe_bits();
}

// The classical full comparison, lifted to rotating vectors (baseline: O(n)
// time, and O(n·log(mn)) bits if run remotely by shipping one whole vector).
// Returns a.to_version_vector().compare(b.to_version_vector()) for any pair,
// at-rest or not, with O(|a| + |b|) site-index probes and no allocation.
Ordering compare_full(const RotatingVector& a, const RotatingVector& b);

inline std::uint64_t compare_full_cost_bits(const CostModel& cm, std::size_t vector_size) {
  return static_cast<std::uint64_t>(vector_size) * cm.elem_bits(0) + cm.halt_bits();
}

}  // namespace optrep::vv

// The distributed COMPARE protocol itself lives in session.h
// (vv::compare_session): both sites send their ⌊v⌋ probe simultaneously and
// decide locally — one half round trip, 2·log(mn) bits total.
