// Quickstart: the smallest end-to-end tour of optrep.
//
// Three laptops replicate one shopping list. A and B edit concurrently; the
// system detects the conflict with an O(1) COMPARE, reconciles it with SYNCS
// (skip rotating vectors), and converges — transmitting only vector
// differences, never whole vectors.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "repl/state_system.h"

using namespace optrep;

int main() {
  const SiteId kAlice{0}, kBob{1}, kCarol{2};
  const ObjectId kList{0};

  repl::StateSystem::Config cfg;
  cfg.n_sites = 3;
  cfg.kind = vv::VectorKind::kSrv;            // the paper's optimal implementation
  cfg.policy = repl::ResolutionPolicy::kAutomatic;
  cfg.cost = CostModel{.n = 3, .m = 1024};    // sizes wire fields (§3.3)
  repl::StateSystem sys(cfg);

  std::printf("== optrep quickstart ==\n\n");

  // Alice creates the list and shares it with Bob.
  sys.create_object(kAlice, kList, "milk");
  sys.sync(kBob, kAlice, kList);
  std::printf("Alice creates the list; Bob pulls a replica.\n");
  std::printf("  Alice: %s\n", sys.replica(kAlice, kList).vector.to_string().c_str());
  std::printf("  Bob:   %s\n\n", sys.replica(kBob, kList).vector.to_string().c_str());

  // Both edit while disconnected.
  sys.update(kAlice, kList, "eggs");
  sys.update(kBob, kList, "coffee");
  std::printf("Disconnected edits:\n");
  std::printf("  Alice: %s\n", sys.replica(kAlice, kList).vector.to_string().c_str());
  std::printf("  Bob:   %s\n\n", sys.replica(kBob, kList).vector.to_string().c_str());

  // Bob syncs from Alice: conflict detected (O(1)) and reconciled.
  const auto out = sys.sync(kBob, kAlice, kList);
  std::printf("Bob syncs from Alice -> relation: %s, action: %s\n",
              std::string(vv::to_string(out.relation)).c_str(),
              out.action == repl::SyncOutcome::Action::kReconciled ? "reconciled" : "other");
  std::printf("  transferred %llu model bits (%llu bytes) in %llu messages\n",
              (unsigned long long)out.report.total_bits(),
              (unsigned long long)out.report.total_bytes(),
              (unsigned long long)(out.report.fwd.messages + out.report.rev.messages));
  std::printf("  Bob now: %s\n", sys.replica(kBob, kList).vector.to_string().c_str());
  std::printf("  Bob's list:");
  for (const auto& e : sys.replica(kBob, kList).data.entries) std::printf(" %s", e.c_str());
  std::printf("\n\n");

  // Alice and Carol pull the merged state; everyone converges.
  sys.sync(kAlice, kBob, kList);
  sys.sync(kCarol, kBob, kList);
  std::printf("After Alice and Carol pull:\n");
  std::printf("  consistent everywhere: %s\n",
              sys.replicas_consistent(kList) ? "yes" : "no");
  std::printf("  total traffic: %llu bits across %llu sessions\n",
              (unsigned long long)sys.totals().bits,
              (unsigned long long)sys.totals().sessions);
  return 0;
}
