// The replicas a repl system hosts, keyed by (site, object) — the replica
// bookkeeping StateSystem, RecordSystem and OpSystem share.
//
// Node-based nested maps: a replica's address is stable for its lifetime
// (rehashing moves no values), which StateSystem::run_batch relies on when it
// resolves replica pointers once and hands them to parallel sessions.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace optrep::repl {

template <class R>
class ReplicaMap {
 public:
  // The replica, or nullptr when `site` hosts none of `obj`.
  const R* find(SiteId site, ObjectId obj) const {
    auto sit = sites_.find(site);
    if (sit == sites_.end()) return nullptr;
    auto rit = sit->second.find(obj);
    return rit == sit->second.end() ? nullptr : &rit->second;
  }
  R* find(SiteId site, ObjectId obj) { return const_cast<R*>(std::as_const(*this).find(site, obj)); }
  bool has(SiteId site, ObjectId obj) const { return find(site, obj) != nullptr; }

  // Checked access: dies unless `site` hosts a replica of `obj`.
  const R& at(SiteId site, ObjectId obj) const {
    const R* r = find(site, obj);
    OPTREP_CHECK_MSG(r != nullptr, "no replica of object on site");
    return *r;
  }
  R& at(SiteId site, ObjectId obj) { return const_cast<R&>(std::as_const(*this).at(site, obj)); }

  // The replica, created empty if absent.
  R& get_or_create(SiteId site, ObjectId obj) { return sites_[site][obj]; }

  // Sites hosting `obj`, ascending.
  std::vector<SiteId> hosts_of(ObjectId obj) const {
    std::vector<SiteId> out;
    for (const auto& [site, objs] : sites_) {
      if (objs.contains(obj)) out.push_back(site);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Every host's replica of `obj` satisfies `covers` (e.g. holds an update).
  template <class Pred>
  bool all_cover(ObjectId obj, Pred&& covers) const {
    for (const auto& [site, objs] : sites_) {
      auto it = objs.find(obj);
      if (it != objs.end() && !covers(it->second)) return false;
    }
    return true;
  }

  // Every host's replica of `obj` agrees with the first one found under
  // `same(replica, first)`.
  template <class Eq>
  bool all_agree(ObjectId obj, Eq&& same) const {
    const R* first = nullptr;
    return all_cover(obj, [&](const R& r) {
      if (first != nullptr) return same(r, *first);
      first = &r;
      return true;
    });
  }

  // fn(site, obj, replica) for every replica, in map order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [site, objs] : sites_) {
      for (const auto& [obj, r] : objs) fn(site, obj, r);
    }
  }

 private:
  std::unordered_map<SiteId, std::unordered_map<ObjectId, R>> sites_;
};

}  // namespace optrep::repl
