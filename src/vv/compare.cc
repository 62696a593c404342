#include "vv/compare.h"

namespace optrep::vv {

Ordering compare_fast(const RotatingVector& a, const RotatingVector& b) {
  const auto fa = a.front();
  const auto fb = b.front();
  if (!fa.has_value() && !fb.has_value()) return Ordering::kEqual;
  if (!fa.has_value()) return Ordering::kBefore;  // a has seen nothing
  if (!fb.has_value()) return Ordering::kAfter;

  const SiteId la = fa->site;
  const std::uint64_t ua = fa->value;
  const SiteId lb = fb->site;
  const std::uint64_t ub = fb->value;

  // Algorithm 1, lines 2–5.
  if (ua == b.value(la) && a.value(lb) == ub) return Ordering::kEqual;
  if (ua <= b.value(la)) return Ordering::kBefore;
  if (ub <= a.value(lb)) return Ordering::kAfter;
  return Ordering::kConcurrent;
}

Ordering compare_full(const RotatingVector& a, const RotatingVector& b) {
  // VersionVector::compare over the two vectors in place: walk each one and
  // probe the other's site index. An absent element and a stored zero both
  // read 0, so the verdict equals to_version_vector().compare(...) without
  // building either map.
  bool a_has_more = false;  // some a[i] > b[i]
  bool b_has_more = false;
  for (const RotatingVector::Element e : a) {
    const std::uint64_t theirs = b.value(e.site);
    if (e.value > theirs) a_has_more = true;
    if (e.value < theirs) b_has_more = true;
    if (a_has_more && b_has_more) return Ordering::kConcurrent;
  }
  if (!b_has_more) {
    for (const RotatingVector::Element e : b) {
      if (e.value > a.value(e.site)) {
        b_has_more = true;
        break;
      }
    }
  }
  if (a_has_more && b_has_more) return Ordering::kConcurrent;
  if (a_has_more) return Ordering::kAfter;
  if (b_has_more) return Ordering::kBefore;
  return Ordering::kEqual;
}

}  // namespace optrep::vv
