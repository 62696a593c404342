// The simulator oracle the serving tests check TCP and in-memory sessions
// against: either endpoint's session semantics replayed on shadow vectors
// through vv::sync_rotating.
#pragma once

#include "common/ids.h"
#include "sim/event_loop.h"
#include "vv/compare.h"
#include "vv/order.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"

namespace optrep::net::test {

inline bool transfer_needed(vv::Ordering receiver_rel, vv::VectorKind kind) {
  return receiver_rel == vv::Ordering::kBefore ||
         (receiver_rel == vv::Ordering::kConcurrent && kind != vv::VectorKind::kBrv);
}

// COMPARE decides the receiver's relation, a needed transfer runs the
// simulator session, and a reconciled concurrent sync ends with the §2.2
// mandated local update — exactly what both endpoints do to their private
// clones before committing. Returns the receiver's relation to the sender.
inline vv::Ordering oracle_sync(vv::RotatingVector& recv, const vv::RotatingVector& send,
                                vv::VectorKind kind, SiteId own, bool stop_and_wait) {
  const vv::Ordering rel = vv::compare_fast(recv, send);
  if (!transfer_needed(rel, kind)) return rel;
  vv::SyncOptions opt;
  opt.kind = kind;
  opt.mode = stop_and_wait ? vv::TransferMode::kStopAndWait : vv::TransferMode::kPipelined;
  opt.known_relation = rel;
  sim::EventLoop loop;
  vv::sync_rotating(loop, recv, send, opt);
  if (rel == vv::Ordering::kConcurrent) recv.record_update(own);
  return rel;
}

}  // namespace optrep::net::test
