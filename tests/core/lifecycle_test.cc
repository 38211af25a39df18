// Session lifecycle on core::Cluster, on one shared cache (one worker, no
// LLC) and over sharded workers: close() semantics, band recycling,
// admission control under pressure, O(live) bookkeeping, and the swap
// tier's headline guarantee -- a swap-on run is bit-identical to a swap-off
// run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "partition/pipeline_dp.h"
#include "session/lifecycle.h"
#include "util/contracts.h"
#include "util/error.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

using session::SessionState;

/// A small pipeline + its optimal partition for the given cache size.
struct Workload {
  sdf::SdfGraph graph;
  partition::Partition partition;
};

Workload small_workload(std::int64_t m, std::int64_t state = 64) {
  Workload w;
  w.graph = workloads::uniform_pipeline(4, state);
  w.partition = partition::pipeline_optimal_partition(w.graph, 3 * m).partition;
  return w;
}

std::string numbered(const char* prefix, std::int64_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

/// One shared cache: a one-worker cluster with no LLC.
ClusterOptions single_cache(iomodel::CacheConfig cache = {2048, 8}) {
  ClusterOptions o;
  o.workers = 1;
  o.l1 = cache;
  o.llc_words = 0;
  return o;
}

/// Two workers over a shared LLC.
ClusterOptions two_workers() {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.llc_words = 16 * 1024;
  return o;
}

// ---------------------------------------------------------------------------
// One shared cache (suite `ServerLifecycle`, named for the former
// single-cache serving class): close() contract and O(live) bookkeeping.

TEST(ServerLifecycle, IdsAreNeverReused) {
  Cluster cluster(single_cache());
  const Workload w = small_workload(2048);
  std::vector<TenantId> seen;
  for (int i = 0; i < 6; ++i) {
    const TenantId id = cluster.admit(numbered("t", i), w.graph, w.partition);
    for (const TenantId old : seen) EXPECT_NE(id, old);
    seen.push_back(id);
    cluster.close(id);  // the slot frees but the id must not come back
  }
}

TEST(ServerLifecycle, ClosedTotalsFoldIntoRetiredAndTheAggregate) {
  Cluster cluster(single_cache());
  const Workload w = small_workload(2048);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  cluster.push(a, 256);
  cluster.push(b, 256);
  cluster.run_until_idle();
  cluster.drain_all();

  const runtime::RunResult a_totals = cluster.stream(a).stats();
  ASSERT_GT(a_totals.cache.accesses, 0);
  cluster.close(a);
  cluster.push(b, 128);
  cluster.run_until_idle();
  cluster.drain_all();

  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.retired, a_totals);
  EXPECT_EQ(report.retired_sessions, 1);
  ASSERT_EQ(report.tenants.size(), 1u);
  // Closing loses no work: open rows + retired still equal the shared
  // cache's own ground-truth counters.
  EXPECT_EQ(report.aggregate.cache, report.workers.front().l1);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);
}

TEST(ServerLifecycle, BandsRecycleAndExhaustionThrows) {
  // The default 2^36-word band splits the 2^40 space into exactly 16 bands.
  Cluster cluster(single_cache());
  const Workload w = small_workload(2048);
  std::vector<TenantId> open;
  for (int i = 0; i < 16; ++i)
    open.push_back(cluster.admit(numbered("t", i), w.graph, w.partition));

  const std::string err =
      error_of([&] { cluster.admit("one-too-many", w.graph, w.partition); });
  EXPECT_NE(err.find("address space exhausted"), std::string::npos) << err;
  EXPECT_NE(err.find("16"), std::string::npos) << err;

  cluster.close(open[5]);  // frees a band mid-range...
  const TenantId again = cluster.admit("reuses-band", w.graph, w.partition);
  EXPECT_NE(again, kNoTenant);  // ...and the next admit picks it up
  EXPECT_EQ(cluster.tenant_count(), 16);
}

TEST(ServerLifecycle, BandWordsMustAlignToTheBlockSize) {
  ClusterOptions o = single_cache();
  o.band_words = (std::int64_t{1} << 20) + 4;  // not a multiple of 8
  EXPECT_THROW(Cluster{o}, Error);
}

// ---------------------------------------------------------------------------
// One shared cache: admission control and the swap tier.

TEST(ServerLifecycle, BoundedLiveRejectsWhenSwapIsOff) {
  ClusterOptions o = single_cache();
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  Cluster cluster(o);
  const Workload w = small_workload(2048);
  EXPECT_NE(cluster.admit("a", w.graph, w.partition), kNoTenant);
  EXPECT_NE(cluster.admit("b", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.admit("c", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 0);
  EXPECT_EQ(cluster.tenant_count(), 2);

  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.lifecycle.peak_live, 2);
}

TEST(ServerLifecycle, AdmissionPressureEvictsTheColdestIdleSession) {
  ClusterOptions o = single_cache();
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(2048);
  const TenantId a = cluster.admit("a", w.graph, w.partition);
  const TenantId b = cluster.admit("b", w.graph, w.partition);
  cluster.push(a, 64);
  cluster.push(b, 64);
  cluster.run_until_idle();  // both idle -> both are eviction candidates

  const TenantId c = cluster.admit("c", w.graph, w.partition);
  EXPECT_NE(c, kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 0);
  // `a` was touched before `b`, so it is the least-recently-active victim.
  EXPECT_TRUE(cluster.swapped(a));
  EXPECT_EQ(cluster.state_of(a), SessionState::kSwapped);
  EXPECT_FALSE(cluster.swapped(b));
  EXPECT_EQ(cluster.lifecycle().swap_outs, 1);
  EXPECT_EQ(cluster.lifecycle().swapped_sessions, 1);
  EXPECT_EQ(cluster.lifecycle().live_sessions, 2);  // b + c resident

  // The next push rehydrates `a` transparently -- but the budget still
  // holds, so someone else must go cold first.
  cluster.push(b, 64);
  cluster.push(c, 64);
  cluster.run_until_idle();
  const runtime::RunResult before = cluster.report().aggregate;
  cluster.swap_out(b);
  EXPECT_EQ(cluster.push(a, 64), 64);
  EXPECT_FALSE(cluster.swapped(a));
  EXPECT_EQ(cluster.lifecycle().swap_ins, 1);
  cluster.run_until_idle();
  EXPECT_GT(cluster.report().aggregate.cache.accesses, before.cache.accesses);
}

TEST(ServerLifecycle, SwapOutRequiresAnIdleResidentSessionAndSwapMode) {
  Cluster no_swap(single_cache());
  const Workload w = small_workload(2048);
  const TenantId t = no_swap.admit("t", w.graph, w.partition);
  EXPECT_THROW(no_swap.swap_out(t), ContractViolation);

  ClusterOptions on = single_cache();
  on.swap = true;
  Cluster cluster(on);
  const TenantId u = cluster.admit("u", w.graph, w.partition);
  cluster.push(u, 16);  // live (has pending arrivals) -> not evictable
  EXPECT_THROW(cluster.swap_out(u), Error);
  cluster.run_until_idle();
  cluster.swap_out(u);
  EXPECT_THROW(cluster.swap_out(u), Error);  // already swapped
}

// ---------------------------------------------------------------------------
// Shared by both configurations: one shared cache and sharded workers.

/// Closing a tenant retires its id for good (errors name the live tenants)
/// and folds its totals into the retired row without losing any work.
void expect_close_rejects_the_id_forever(const ClusterOptions& o) {
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  ASSERT_EQ(cluster.tenant_count(), 2);
  cluster.push(a, 64);
  cluster.push(b, 64);
  cluster.run_until_idle();

  cluster.close(a);
  EXPECT_EQ(cluster.tenant_count(), 1);
  EXPECT_EQ(error_of([&] { cluster.close(a); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  EXPECT_EQ(error_of([&] { cluster.push(a, 1); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.retired_sessions, 1);
  EXPECT_GT(report.retired.cache.accesses, 0);
  ASSERT_EQ(report.tenants.size(), 1u);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);

  cluster.close(b);
  EXPECT_EQ(error_of([&] { cluster.close(b); }),
            "unknown tenant id 1; live tenants: (none)");
  EXPECT_EQ(cluster.lifecycle().sessions_opened, 2);
  EXPECT_EQ(cluster.lifecycle().sessions_closed, 2);
  EXPECT_EQ(cluster.lifecycle().live_sessions, 0);
  EXPECT_EQ(cluster.lifecycle().resident_words, 0);
}

TEST(ServerLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  expect_close_rejects_the_id_forever(single_cache());
}

TEST(ClusterLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  expect_close_rejects_the_id_forever(two_workers());
}

TEST(ClusterLifecycle, BoundedLiveCountsRejections) {
  ClusterOptions o = two_workers();
  o.llc_words = 0;
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 3;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  for (int i = 0; i < 3; ++i)
    EXPECT_NE(cluster.admit(numbered("t", i), w.graph, w.partition),
              kNoTenant);
  EXPECT_EQ(cluster.admit("overflow", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(cluster.report().lifecycle.peak_live, 3);
}

TEST(ClusterLifecycle, FreshSessionsAreIdleEvictionVictims) {
  // A just-admitted session has no input, so it cannot fire: it is idle,
  // and admission pressure may swap it out. k+1 back-to-back admits under
  // max_live_sessions = k therefore all succeed, the last by one eviction.
  constexpr int k = 3;
  ClusterOptions o = single_cache();
  o.admission = "bounded-live";
  o.budget.max_live_sessions = k;
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(2048);
  std::vector<TenantId> ids;
  for (int i = 0; i <= k; ++i) {
    ids.push_back(cluster.admit(numbered("t", i), w.graph, w.partition));
    EXPECT_NE(ids.back(), kNoTenant) << i;
    EXPECT_EQ(cluster.state_of(ids.back()), SessionState::kIdle) << i;
  }
  EXPECT_EQ(cluster.lifecycle().admissions_queued, 1);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 0);
  EXPECT_TRUE(cluster.swapped(ids.front()));  // the coldest: admitted first
  EXPECT_EQ(cluster.lifecycle().live_sessions, k);
  // A push wakes the swapped session (rehydrating it) and it serves.
  EXPECT_EQ(cluster.push(ids.front(), 32), 32);
  EXPECT_EQ(cluster.state_of(ids.front()), SessionState::kLive);
  cluster.run_until_idle();
  cluster.drain_all();
  EXPECT_EQ(cluster.report().tenants.front().outputs, 32);
}

TEST(ClusterLifecycle, FootprintStateIsOLiveNotOEverAdmitted) {
  // The placement estimator keeps one record per open session: admit/close
  // churn must leave it tracking exactly the sessions still open.
  for (const char* placement : {"round-robin", "adaptive"}) {
    ClusterOptions o = two_workers();
    o.placement = placement;
    Cluster cluster(o);
    const Workload w = small_workload(o.l1.capacity_words);
    const TenantId keep = cluster.admit("keep", w.graph, w.partition);
    for (int i = 0; i < 64; ++i) {
      const TenantId id = cluster.admit(numbered("t", i), w.graph, w.partition);
      cluster.push(id, 16);
      cluster.run_until_idle();
      cluster.close(id);
      EXPECT_EQ(cluster.footprints().session_count(), cluster.tenant_count()) << placement;
    }
    EXPECT_EQ(cluster.tenant_count(), 1);
    EXPECT_EQ(cluster.footprints().footprint_words(keep),
              cluster.stream(keep).layout_span().words);
  }
}

/// Drives one cluster through a fixed schedule: with `swap`, every
/// quiescent point evicts all idle sessions, so the next round's pushes all
/// rehydrate. `single` serves two tenants on one shared cache under
/// miss-aware (decisions depend on counters -> a real gate); otherwise four
/// tenants over two affinity-placed workers with a rebalance each round.
ClusterReport drive(bool single, bool swap) {
  ClusterOptions o = single ? single_cache({4096, 8}) : two_workers();
  if (single) o.tenant_policy = "miss-aware";
  if (!single) o.placement = "affinity";
  o.swap = swap;
  Cluster cluster(o);
  const Workload wa = small_workload(o.l1.capacity_words, 64);
  const Workload wb = small_workload(o.l1.capacity_words, 96);
  const int tenants = single ? 2 : 4;
  const int rounds = single ? 5 : 4;
  std::vector<TenantId> ids;
  for (int i = 0; i < tenants; ++i) {
    const Workload& w = (i % 2 == 0) ? wa : wb;
    ids.push_back(cluster.admit(numbered("t", i), w.graph, w.partition));
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::int64_t items = single ? (i % 2 == 0 ? 96 : 64)
                                        : 48 + 16 * static_cast<std::int64_t>(i % 2);
      cluster.push(ids[i], items);
    }
    cluster.run_until_idle();
    if (!single) cluster.rebalance();
    if (swap) {
      EXPECT_EQ(cluster.swap_out_idle(), tenants);
    }
  }
  cluster.drain_all();
  return cluster.report();
}

/// Runs `drive` with swap off and on and checks the two reports agree bit
/// for bit, with the swap-on run having really round-tripped every session.
void expect_swap_on_bit_identical_to_swap_off(bool single) {
  const ClusterReport off = drive(single, false);
  const ClusterReport on = drive(single, true);
  ASSERT_EQ(off.tenants.size(), on.tenants.size());
  for (std::size_t i = 0; i < off.tenants.size(); ++i) {
    EXPECT_EQ(off.tenants[i].id, on.tenants[i].id);
    EXPECT_EQ(off.tenants[i].state, on.tenants[i].state);
    EXPECT_EQ(off.tenants[i].totals, on.tenants[i].totals) << i;
    EXPECT_EQ(off.tenants[i].steps, on.tenants[i].steps) << i;
    EXPECT_EQ(off.tenants[i].outputs, on.tenants[i].outputs) << i;
    // Swapped sessions stay pinned, so placement history is identical too.
    EXPECT_EQ(off.tenants[i].worker, on.tenants[i].worker) << i;
    EXPECT_EQ(off.tenants[i].migrations, on.tenants[i].migrations) << i;
  }
  ASSERT_EQ(off.workers.size(), on.workers.size());
  for (std::size_t wi = 0; wi < off.workers.size(); ++wi) {
    // Not one extra cache access from all the swapping.
    EXPECT_EQ(off.workers[wi].l1, on.workers[wi].l1) << wi;
    EXPECT_EQ(off.workers[wi].busy, on.workers[wi].busy) << wi;
    EXPECT_EQ(off.workers[wi].steps, on.workers[wi].steps) << wi;
  }
  EXPECT_EQ(off.aggregate, on.aggregate);
  EXPECT_EQ(off.llc, on.llc);
  EXPECT_EQ(off.steps, on.steps);
  EXPECT_EQ(off.makespan(), on.makespan());
  // ...and the swap-on run really did round-trip everything, repeatedly.
  EXPECT_EQ(on.lifecycle.swap_outs, single ? 10 : 16);
  EXPECT_GE(on.lifecycle.swap_ins, single ? 8 : 12);
  EXPECT_EQ(off.lifecycle.swap_outs, 0);
}

TEST(ServerLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  expect_swap_on_bit_identical_to_swap_off(/*single=*/true);
}

TEST(ClusterLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  expect_swap_on_bit_identical_to_swap_off(/*single=*/false);
}

TEST(ClusterLifecycle, ConstStreamAccessOfASwappedTenantThrows) {
  ClusterOptions o = single_cache();
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId t = cluster.admit("t", w.graph, w.partition);
  cluster.push(t, 32);
  cluster.run_until_idle();
  cluster.swap_out(t);
  const Cluster& view = cluster;
  EXPECT_THROW(view.stream(t), Error);
  EXPECT_NO_THROW(cluster.stream(t));  // non-const rehydrates instead
  EXPECT_FALSE(cluster.swapped(t));
}

}  // namespace
}  // namespace ccs::core
