#include "repl/record_system.h"

#include "obs/prof.h"

namespace optrep::repl {

void RecordSystem::create_object(SiteId site, ObjectId obj, const std::string& key,
                                 std::string value) {
  OPTREP_CHECK_MSG(!replicas_.has(site, obj), "object already exists on site");
  apply_put(replicas_.get_or_create(site, obj), site, key, std::move(value));
}

void RecordSystem::put(SiteId site, ObjectId obj, const std::string& key,
                       std::string value) {
  OPTREP_SPAN("records.put");
  apply_put(replicas_.at(site, obj), site, key, std::move(value));
}

void RecordSystem::apply_put(RecordReplica& r, SiteId site, const std::string& key,
                             std::string value) {
  r.vector.record_update(site);
  RecordCell& cell = r.records[key];
  cell.value = std::move(value);
  cell.writer = UpdateId{site, r.vector.value(site)};
  cell.flagged = false;  // a fresh local write supersedes any flag
}

RecordSystem::SyncResult RecordSystem::sync(SiteId dst, SiteId src, ObjectId obj) {
  OPTREP_SPAN("records.sync");
  OPTREP_CHECK_MSG(dst != src, "a site cannot synchronize with itself");
  SyncResult out;
  const RecordReplica* sender = replicas_.find(src, obj);
  if (sender == nullptr) return out;
  RecordReplica& receiver = replicas_.get_or_create(dst, obj);

  // Snapshot the receiver's causal knowledge before the vectors join: the
  // semantic detector judges each record against what each side knew at
  // write time.
  vv::VersionVector dst_pre;
  const VectorSync::Outcome step = vsync_.run(
      loop_, receiver.vector, sender->vector,
      {dst, src, totals_.sessions + 1, &metrics_, nullptr}, [&](vv::Ordering) {
        dst_pre = receiver.vector.to_version_vector();
        return true;
      });
  out.relation = step.relation;
  out.report = step.report;
  // A failed sync leaves the vector untouched, so the records stay too: the
  // vector never claims records that did not arrive (the semantic detector
  // would skip merging them when a later sync redoes the work).
  if (step.merged && step.relation == vv::Ordering::kBefore) {
    // Plain state transfer: the sender's records strictly supersede ours.
    receiver.records = sender->records;
  } else if (step.merged) {
    // Syntactic conflict (O(1) detection) → semantic detector (§1).
    out.syntactic_conflict = true;
    ++totals_.syntactic_conflicts;
    out.semantic_conflicts = semantic_merge(receiver, *sender, dst_pre);
    totals_.semantic_conflicts += out.semantic_conflicts;
    if (out.semantic_conflicts == 0) ++totals_.syntactic_only;
    // §2.2: reconciliation ends with a separate local update.
    receiver.vector.record_update(dst);
  }
  vsync_.account(out.report, totals_, metrics_, loop_.now());
  publish_metrics();
  return out;
}

void RecordSystem::publish_metrics() {
  vsync_.publish(metrics_, totals_, loop_);
  metrics_.counter("records.syntactic_conflicts").set(totals_.syntactic_conflicts);
  metrics_.counter("records.syntactic_only").set(totals_.syntactic_only);
  metrics_.counter("records.semantic_conflicts").set(totals_.semantic_conflicts);
  metrics_.counter("records.records_merged").set(totals_.records_merged);
  metrics_.counter("records.flagged_records").set(totals_.flagged_records);
}

std::size_t RecordSystem::semantic_merge(RecordReplica& dst, const RecordReplica& src,
                                         const vv::VersionVector& dst_pre) {
  std::size_t true_conflicts = 0;
  for (const auto& [key, theirs] : src.records) {
    auto it = dst.records.find(key);
    if (it == dst.records.end()) {
      dst.records.emplace(key, theirs);
      ++totals_.records_merged;
      continue;
    }
    RecordCell& mine = it->second;
    if (mine.writer == theirs.writer) {
      mine.flagged = mine.flagged && theirs.flagged;  // either side's repair wins
      continue;
    }
    // Per-record causality: a write is superseded if the replica holding the
    // other value had already absorbed it when diverging.
    const bool theirs_visible_to_me =
        theirs.writer.seq <= dst_pre.value(theirs.writer.site);
    if (theirs_visible_to_me) continue;  // my value already accounts for theirs
    const bool mine_visible_to_them =
        mine.writer.seq <= src.vector.value(mine.writer.site);
    if (mine_visible_to_them) {
      mine = theirs;  // their write knew mine: causal overwrite
      ++totals_.records_merged;
      continue;
    }
    // Concurrent writes to the same key.
    if (mine.value == theirs.value) {
      // Semantically consistent despite syntactic concurrency: converge
      // provenance deterministically and move on — this is exactly the
      // false-conflict class semantic-over-syntactic detection filters out.
      if (theirs.writer > mine.writer) mine.writer = theirs.writer;
      ++totals_.records_merged;
      continue;
    }
    // True (semantic) conflict.
    ++true_conflicts;
    switch (cfg_.policy) {
      case SemanticPolicy::kLastWriterWins:
        if (theirs.writer > mine.writer) mine = theirs;
        break;
      case SemanticPolicy::kFlag:
        mine.flagged = true;
        ++totals_.flagged_records;
        break;
    }
  }
  return true_conflicts;
}

}  // namespace optrep::repl
