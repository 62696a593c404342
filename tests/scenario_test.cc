// The large-world scenario stack: sim::ScenarioWorld (dirty-queue gossip
// engine over a Mesh, arena-backed replicas) plus the wl phase driver
// (script parsing, run_scenario, optrep.run/v1 report). Worlds here are
// small (tens to hundreds of sites) so the whole suite runs in milliseconds;
// bench_scenario owns the 10^5-site scale checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/scenario.h"
#include "workload/scenario.h"

namespace optrep {
namespace {

using sim::ScenarioAlgo;
using sim::ScenarioWorld;
using wl::PhaseSpec;

ScenarioWorld::Config small_world_cfg(ScenarioAlgo algo, std::uint32_t sites,
                                      std::uint32_t writers) {
  ScenarioWorld::Config cfg;
  cfg.algo = algo;
  cfg.sites = sites;
  cfg.writers = writers;
  cfg.mesh = sim::MeshKind::kRing;
  cfg.degree = 2;
  cfg.seed = 11;
  return cfg;
}

std::vector<PhaseSpec> parse_ok(const std::string& script, std::uint32_t sites) {
  std::vector<PhaseSpec> phases;
  std::string err;
  const bool ok = wl::parse_scenario_script(script, sites, phases, err);
  EXPECT_TRUE(ok) << script << ": " << err;
  return phases;
}

TEST(ScenarioWorld, ConvergesOnEveryVvAlgo) {
  for (const ScenarioAlgo algo :
       {ScenarioAlgo::kBrv, ScenarioAlgo::kCrv, ScenarioAlgo::kSrv}) {
    const std::uint32_t writers = algo == ScenarioAlgo::kBrv ? 1 : 4;
    ScenarioWorld world(small_world_cfg(algo, 64, writers));
    const auto phases = parse_ok("warmup:16,quiesce", 64);
    const wl::ScenarioStats stats = wl::run_scenario(world, phases);
    EXPECT_TRUE(stats.converged) << sim::to_string(algo);
    EXPECT_EQ(world.dirty_count(), 0u);
    EXPECT_EQ(stats.totals.updates, 16u);
    EXPECT_GT(stats.totals.sessions, 0u);
    EXPECT_GE(stats.totals.compares, stats.totals.sessions / 2);
    EXPECT_GT(stats.totals.bits, 0u);
    EXPECT_GT(stats.convergence_rounds, 0u);
    EXPECT_FALSE(stats.quiesce_truncated);
    // Arena-backed replicas: footprint is visible and consistent.
    EXPECT_GT(stats.arena.live_bytes, 0u);
    EXPECT_EQ(stats.replica_bytes, world.replica_memory_bytes());
    EXPECT_GT(stats.mesh_bytes, 0u);
  }
}

TEST(ScenarioWorld, SyncgConvergesAndShipsNodes) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSyncg, 48, 1));
  const wl::ScenarioStats stats = wl::run_scenario(world, parse_ok("warmup:8,quiesce", 48));
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.totals.nodes_applied, 0u);
  EXPECT_EQ(stats.totals.elems_applied, 0u);
  EXPECT_EQ(stats.totals.reconciliations, 0u);
  // Graph replicas live on the heap, outside the arena; replica_bytes counts
  // them (CausalGraph::memory_bytes).
  EXPECT_GT(stats.replica_bytes, 0u);
}

// A SYNCG world's footprint is its graphs' node vectors and id indexes: more
// than 0 bytes once converged, and more again after further updates reach
// every replica.
TEST(ScenarioWorld, SyncgReplicaBytesCountGraphsAndGrow) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSyncg, 48, 1));
  const wl::ScenarioStats first = wl::run_scenario(world, parse_ok("converge", 48));
  ASSERT_TRUE(first.converged);
  EXPECT_GT(first.replica_bytes, 0u);
  EXPECT_EQ(first.replica_bytes, world.replica_memory_bytes());
  const wl::ScenarioStats more = wl::run_scenario(world, parse_ok("warmup:256,quiesce", 48));
  ASSERT_TRUE(more.converged);
  EXPECT_GT(more.replica_bytes, first.replica_bytes);
}

// BRV cannot merge concurrent pairs (§3.1: reconciliation is manual) — a
// two-writer BRV world must report held conflicts and fail to converge
// rather than spin: every exchange leaves both sides unchanged, so the dirty
// queue drains and quiesce terminates.
TEST(ScenarioWorld, BrvHoldsConcurrentPairsAndQuiesces) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kBrv, 32, 2));
  const wl::ScenarioStats stats = wl::run_scenario(world, parse_ok("warmup:4,quiesce", 32));
  EXPECT_FALSE(stats.converged);
  EXPECT_GT(stats.totals.conflicts_held, 0u);
  EXPECT_EQ(stats.totals.reconciliations, 0u);
  EXPECT_EQ(world.dirty_count(), 0u);  // terminated, not truncated
  EXPECT_FALSE(stats.quiesce_truncated);
}

TEST(ScenarioWorld, PartitionBlocksCrossHalfConvergence) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSrv, 64, 4));
  world.set_partitioned(true);
  // Writers sit at 0, 16, 32, 48 (spread evenly over 64 sites), so both
  // halves of the 32-boundary split diverge.
  for (int i = 0; i < 8; ++i) world.local_update(world.next_writer());
  while (world.dirty_count() > 0) world.gossip_round();
  EXPECT_FALSE(world.converged());  // halves equalized internally only
  world.set_partitioned(false);     // heal dirties the boundary
  EXPECT_GT(world.dirty_count(), 0u);
  while (world.dirty_count() > 0) world.gossip_round();
  EXPECT_TRUE(world.converged());
}

TEST(ScenarioWorld, ChurnedSitesCatchUpAfterComingBack) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kCrv, 64, 4));
  world.take_offline(16);
  EXPECT_EQ(world.offline_count(), 16u);
  for (int i = 0; i < 6; ++i) world.local_update(world.next_writer());
  while (world.dirty_count() > 0) world.gossip_round();
  // Offline sites missed the wave; the world cannot be converged yet.
  EXPECT_FALSE(world.converged());
  world.bring_online();
  EXPECT_EQ(world.offline_count(), 0u);
  while (world.dirty_count() > 0) world.gossip_round();
  EXPECT_TRUE(world.converged());
}

TEST(ScenarioDriver, FlashCrowdWidensTheWriterSet) {
  const auto phases = parse_ok("flash-crowd", 200);
  const std::uint32_t flash = wl::scenario_flash_writers(phases);
  EXPECT_GT(flash, 0u);
  ScenarioWorld::Config cfg = small_world_cfg(ScenarioAlgo::kSrv, 200, 4);
  cfg.extra_writers = flash;  // reserve width before any reader can pin
  ScenarioWorld world(cfg);
  const wl::ScenarioStats stats = wl::run_scenario(world, phases);
  EXPECT_TRUE(stats.converged);
  // warmup:16 + one update per flash writer.
  EXPECT_EQ(stats.totals.updates, 16u + flash);
}

TEST(ScenarioDriver, PresetsParseAndConverge) {
  for (const char* preset : {"converge", "partition-heal", "churn", "flash-crowd"}) {
    const auto phases = parse_ok(preset, 128);
    ScenarioWorld::Config cfg = small_world_cfg(ScenarioAlgo::kSrv, 128, 4);
    cfg.extra_writers = wl::scenario_flash_writers(phases);
    ScenarioWorld world(cfg);
    const wl::ScenarioStats stats = wl::run_scenario(world, phases);
    EXPECT_TRUE(stats.converged) << preset;
    EXPECT_FALSE(stats.quiesce_truncated) << preset;
  }
}

TEST(ScenarioDriver, ScriptParserRejectsMalformedInput) {
  std::vector<PhaseSpec> phases;
  std::string err;
  // Unknown phase name.
  EXPECT_FALSE(wl::parse_scenario_script("warp:4", 64, phases, err));
  EXPECT_NE(err.find("warp"), std::string::npos);
  // Zero counts are meaningless.
  EXPECT_FALSE(wl::parse_scenario_script("warmup:0", 64, phases, err));
  EXPECT_FALSE(wl::parse_scenario_script("gossip:0", 64, phases, err));
  // Wrong arity.
  EXPECT_FALSE(wl::parse_scenario_script("warmup", 64, phases, err));
  EXPECT_FALSE(wl::parse_scenario_script("churn:4", 64, phases, err));
  EXPECT_FALSE(wl::parse_scenario_script("partition:2", 64, phases, err));
  EXPECT_FALSE(wl::parse_scenario_script("", 64, phases, err));
  // Malformed integers.
  EXPECT_FALSE(wl::parse_scenario_script("warmup:x", 64, phases, err));
}

TEST(ScenarioDriver, ExplicitPhaseListParses) {
  const auto phases = parse_ok("warmup:8,gossip:4,quiesce,churn:3:5,partition,heal,flash:2",
                               64);
  ASSERT_EQ(phases.size(), 7u);
  EXPECT_EQ(phases[0].kind, PhaseSpec::Kind::kWarmup);
  EXPECT_EQ(phases[0].a, 8u);
  EXPECT_EQ(phases[1].kind, PhaseSpec::Kind::kGossip);
  EXPECT_EQ(phases[3].kind, PhaseSpec::Kind::kChurn);
  EXPECT_EQ(phases[3].a, 3u);
  EXPECT_EQ(phases[3].b, 5u);
  EXPECT_EQ(phases[6].kind, PhaseSpec::Kind::kFlash);
  EXPECT_EQ(wl::scenario_flash_writers(phases), 2u);
}

TEST(ScenarioDriver, QuiesceCapTruncatesHonestly) {
  // A two-writer BRV world with a tiny cap: quiesce stops at the cap only if
  // sites are still dirty; this config drains instead, so force truncation
  // with cap=1 on a world mid-wave.
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSrv, 64, 4));
  std::vector<PhaseSpec> phases;
  phases.push_back({PhaseSpec::Kind::kWarmup, 8, 0});
  phases.push_back({PhaseSpec::Kind::kQuiesce, 0, 0});
  const wl::ScenarioStats stats =
      wl::run_scenario(world, phases, nullptr, 64, /*quiesce_cap=*/2);
  EXPECT_TRUE(stats.quiesce_truncated);
  EXPECT_FALSE(stats.converged);
  EXPECT_GT(world.dirty_count(), 0u);
}

TEST(ScenarioDriver, RunsAreDeterministic) {
  auto run = [] {
    ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSrv, 100, 4));
    const wl::ScenarioStats stats = wl::run_scenario(
        world, [] {
          std::vector<PhaseSpec> p;
          std::string e;
          wl::parse_scenario_script("partition-heal", 100, p, e);
          return p;
        }());
    return wl::scenario_run_report_json(world, "partition-heal", stats);
  };
  EXPECT_EQ(run(), run());
}

TEST(ScenarioDriver, ReportCarriesSchemaAndMemorySections) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSrv, 64, 4));
  const wl::ScenarioStats stats = wl::run_scenario(world, parse_ok("converge", 64));
  const std::string json = wl::scenario_run_report_json(world, "converge", stats);
  for (const char* key :
       {"\"schema\":\"optrep.run/v1\"", "\"command\":\"scenario\"", "\"algo\":\"srv\"",
        "\"mesh\":\"ring\"", "\"converged\":true", "\"arena_live_bytes\"",
        "\"replica_bytes\"", "\"mesh_bytes\"", "\"rt.arena.live_bytes\"",
        "\"scenario.rounds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioDriver, TimelineSamplesOnRoundAxis) {
  ScenarioWorld world(small_world_cfg(ScenarioAlgo::kSrv, 128, 4));
  obs::Timeline timeline;
  const wl::ScenarioStats stats =
      wl::run_scenario(world, parse_ok("converge", 128), &timeline, /*sample_every=*/8);
  EXPECT_TRUE(stats.converged);
  const std::string json = obs::timeline_to_json(timeline);
  EXPECT_NE(json.find("\"axis\":\"rounds\""), std::string::npos);
  EXPECT_NE(json.find("scenario.dirty_sites"), std::string::npos);
  EXPECT_NE(json.find("rt.arena.live_bytes"), std::string::npos);
}

}  // namespace
}  // namespace optrep
