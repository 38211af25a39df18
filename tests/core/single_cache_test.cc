// Multi-tenant serving over ONE shared cache: a one-worker core::Cluster
// with no LLC, under both tenant policies.
//
// Two suites. `Server` holds the single-cache serving properties: a 2+
// tenant run is deterministic (repeat runs are counter-identical), and
// per-tenant RunResults sum to the shared cache's own counters (every
// access belongs to exactly one tenant's step). The suite keeps the name of
// the former single-cache serving class, core::Server, which a one-worker
// Cluster replaced.
//
// `SingleCacheGolden` pins that replacement: its constants were captured
// from core::Server on the same scenarios, while a differential test ran
// both side by side and asserted equal counters. Compared: per-tenant
// dataflow counters (cache, firings, source/sink firings, state/channel/io
// misses), per-tenant steps and outputs, and the report's step total.
// `cost`/`latency` are Cluster-only (the old class never priced steps) and
// stay out. No scenario closes a session: after a close, Cluster's rotation
// restarts at the worker's first tenant, which is where the two
// implementations parted ways.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "partition/pipeline_dp.h"
#include "util/error.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

/// One tenant's captured counters.
struct Row {
  std::int64_t accesses, hits, misses, writebacks;
  std::int64_t firings, source_firings, sink_firings;
  std::int64_t state_misses, channel_misses, io_misses;
  std::int64_t steps, outputs;
  bool operator==(const Row&) const = default;
};

/// One captured run: every tenant's row plus the multiplexing decisions.
struct Golden {
  std::int64_t steps;
  std::vector<Row> tenants;
};

Golden golden_of(const ClusterReport& report) {
  Golden g{report.steps, {}};
  for (const ClusterTenantReport& t : report.tenants) {
    const runtime::RunResult& r = t.totals;
    g.tenants.push_back({r.cache.accesses, r.cache.hits, r.cache.misses, r.cache.writebacks,
                         r.firings, r.source_firings, r.sink_firings, r.state_misses,
                         r.channel_misses, r.io_misses, t.steps, t.outputs});
  }
  return g;
}

/// Two pipelines, interleaved arrivals, the second tenant fed every other
/// round.
void two_tenant(Cluster& c) {
  const auto g1 = workloads::uniform_pipeline(10, 150);
  const auto g2 = workloads::heavy_tail_pipeline(12, 32, 400, 4);
  const auto p1 = partition::pipeline_optimal_partition(g1, 3 * 512).partition;
  const auto p2 = partition::pipeline_optimal_partition(g2, 3 * 512).partition;
  const TenantId a = c.admit("uniform", g1, p1);
  const TenantId b = c.admit("heavy-tail", g2, p2);
  for (int round = 0; round < 8; ++round) {
    c.push(a, 96);
    c.push(b, round % 2 == 0 ? 192 : 0);
    c.run_until_idle();
  }
  c.drain_all();
}

/// The same two pipelines under clumped, out-of-phase bursts.
void bursty(Cluster& c) {
  const auto g1 = workloads::uniform_pipeline(10, 150);
  const auto g2 = workloads::heavy_tail_pipeline(12, 32, 400, 4);
  const auto p1 = partition::pipeline_optimal_partition(g1, 3 * 512).partition;
  const auto p2 = partition::pipeline_optimal_partition(g2, 3 * 512).partition;
  const auto burst_a = workloads::bursty_arrivals(128, 3);
  const auto burst_b = workloads::bursty_arrivals(192, 5);
  const TenantId a = c.admit("a", g1, p1);
  const TenantId b = c.admit("b", g2, p2);
  for (std::int64_t tick = 0; tick < 16; ++tick) {
    c.push(a, burst_a(tick));
    c.push(b, burst_b(tick));
    c.run_until_idle();
  }
  c.drain_all();
}

/// Three tenants warmed together, then the first is starved while the other
/// two keep arriving (the drained-tenant hazard of miss-aware).
void three_drained(Cluster& c) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  const TenantId drained = c.admit("drained", g, p);
  const TenantId fed_b = c.admit("fed-b", g, p);
  const TenantId fed_c = c.admit("fed-c", g, p);
  for (const TenantId t : {drained, fed_b, fed_c}) c.push(t, 32);
  c.run_until_idle();
  for (int round = 0; round < 6; ++round) {
    c.push(fed_b, 48);
    c.push(fed_c, 48);
    c.run_until_idle();
  }
  c.drain_all();
}

/// Three multi-component pipelines under large bursts: many steps per run,
/// so the two tenant policies interleave differently and their counters
/// part (the scenario that tells the rules apart).
void three_bursty(Cluster& c) {
  const sdf::SdfGraph graphs[] = {workloads::uniform_pipeline(24, 200),
                                  workloads::heavy_tail_pipeline(16, 48, 500, 4),
                                  workloads::uniform_pipeline(12, 300)};
  const auto arrivals = workloads::bursty_arrivals(256, 3);
  std::vector<TenantId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto p = partition::pipeline_optimal_partition(graphs[i], 3 * 512).partition;
    ids.push_back(c.admit("t" + std::to_string(i), graphs[i], p, {}, 512));
  }
  for (std::int64_t tick = 0; tick < 12; ++tick) {
    for (const TenantId id : ids) c.push(id, arrivals(tick));
    c.run_until_idle();
  }
  c.drain_all();
}

/// One shared 2048-word cache: one worker, no LLC.
ClusterOptions single_cache(const std::string& tenant_policy = "round-robin") {
  ClusterOptions o;
  o.workers = 1;
  o.l1 = {2048, 8};
  o.llc_words = 0;
  o.tenant_policy = tenant_policy;
  return o;
}

ClusterReport run(void (*scenario)(Cluster&), const std::string& tenant_policy) {
  Cluster cluster(single_cache(tenant_policy));
  scenario(cluster);
  return cluster.report();
}

Golden serve(void (*scenario)(Cluster&), const std::string& tenant_policy) {
  return golden_of(run(scenario, tenant_policy));
}

/// The shared cache's own counters: the one worker's cache.
const iomodel::CacheStats& shared_cache(const ClusterReport& report) {
  return report.workers.front().l1;
}

/// One multiplexing decision: a step_round() on the single worker, and the
/// tenant whose step count it advanced (kNoTenant when every tenant idles).
TenantId step_once(Cluster& cluster) {
  std::vector<std::int64_t> before;
  for (TenantId id = 0; id < cluster.tenant_count(); ++id) {
    before.push_back(cluster.stream(id).steps());
  }
  if (cluster.step_round() == 0) return kNoTenant;
  for (TenantId id = 0; id < cluster.tenant_count(); ++id) {
    if (cluster.stream(id).steps() != before[static_cast<std::size_t>(id)]) return id;
  }
  return kNoTenant;
}

void expect_golden(const Golden& got, const Golden& want, const std::string& tag) {
  EXPECT_EQ(got.steps, want.steps) << tag;
  ASSERT_EQ(got.tenants.size(), want.tenants.size()) << tag;
  for (std::size_t i = 0; i < want.tenants.size(); ++i) {
    EXPECT_TRUE(got.tenants[i] == want.tenants[i]) << tag << " tenant " << i;
  }
}

TEST(SingleCacheGolden, RoundRobinMatchesCapturedCounters) {
  expect_golden(serve(two_tenant, "round-robin"),
                {12,
                 {{161280, 160133, 1147, 108, 7680, 768, 768, 945, 10, 192, 8, 768},
                  {161280, 160336, 944, 75, 9216, 768, 768, 744, 8, 192, 4, 768}}},
                "two-tenant");
  expect_golden(serve(bursty, "round-robin"),
                {10,
                 {{161280, 160133, 1147, 108, 7680, 768, 768, 945, 10, 192, 6, 768},
                  {161280, 160336, 944, 83, 9216, 768, 768, 744, 8, 192, 4, 768}}},
                "bursty");
  expect_golden(serve(three_drained, "round-robin"),
                {15,
                 {{3840, 3727, 113, 0, 256, 32, 32, 103, 2, 8, 1, 32},
                  {38400, 38215, 185, 29, 2560, 320, 320, 103, 2, 80, 7, 320},
                  {38400, 38215, 185, 34, 2560, 320, 320, 103, 2, 80, 7, 320}}},
                "three-drained");
  expect_golden(serve(three_bursty, "round-robin"),
                {36,
                 {{663552, 660102, 3450, 475, 24576, 1024, 1024, 2400, 794, 256, 16, 1024},
                  {364544, 362716, 1828, 286, 16384, 1024, 1024, 1296, 276, 256, 8, 1024},
                  {491520, 488912, 2608, 413, 12288, 1024, 1024, 1824, 528, 256, 12, 1024}}},
                "three-bursty");
}

TEST(SingleCacheGolden, MissAwareMatchesCapturedCounters) {
  expect_golden(serve(two_tenant, "miss-aware"),
                {12,
                 {{161280, 160133, 1147, 112, 7680, 768, 768, 945, 10, 192, 8, 768},
                  {161280, 160336, 944, 71, 9216, 768, 768, 744, 8, 192, 4, 768}}},
                "two-tenant");
  expect_golden(serve(bursty, "miss-aware"),
                {10,
                 {{161280, 160133, 1147, 108, 7680, 768, 768, 945, 10, 192, 6, 768},
                  {161280, 160336, 944, 83, 9216, 768, 768, 744, 8, 192, 4, 768}}},
                "bursty");
  expect_golden(serve(three_drained, "miss-aware"),
                {15,
                 {{3840, 3727, 113, 0, 256, 32, 32, 103, 2, 8, 1, 32},
                  {38400, 38215, 185, 29, 2560, 320, 320, 103, 2, 80, 7, 320},
                  {38400, 38215, 185, 34, 2560, 320, 320, 103, 2, 80, 7, 320}}},
                "three-drained");
  expect_golden(serve(three_bursty, "miss-aware"),
                {36,
                 {{663552, 660114, 3438, 506, 24576, 1024, 1024, 2400, 782, 256, 16, 1024},
                  {364544, 362725, 1819, 262, 16384, 1024, 1024, 1293, 270, 256, 8, 1024},
                  {491520, 488926, 2594, 401, 12288, 1024, 1024, 1824, 514, 256, 12, 1024}}},
                "three-bursty");
}

TEST(Server, PerTenantResultsSumToSharedCacheAggregate) {
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport report = run(two_tenant, policy);
    ASSERT_EQ(report.tenants.size(), 2u);
    EXPECT_GT(report.tenants[0].totals.cache.accesses, 0) << policy;
    EXPECT_GT(report.tenants[1].totals.cache.accesses, 0) << policy;
    // The shared cache saw exactly the union of tenant traffic.
    EXPECT_EQ(report.aggregate.cache, shared_cache(report)) << policy;
  }
}

TEST(Server, RepeatRunsAreCounterIdentical) {
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport first = run(two_tenant, policy);
    const ClusterReport again = run(two_tenant, policy);
    ASSERT_EQ(first.tenants.size(), again.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
      EXPECT_EQ(first.tenants[i].totals, again.tenants[i].totals)
          << policy << " tenant " << first.tenants[i].name;
      EXPECT_EQ(first.tenants[i].steps, again.tenants[i].steps);
    }
    EXPECT_EQ(first.aggregate, again.aggregate) << policy;
    EXPECT_EQ(first.steps, again.steps) << policy;
  }
}

TEST(Server, RoundRobinAlternatesBetweenRunnableTenants) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(single_cache());
  const TenantId a = cluster.admit("a", g, p);
  const TenantId b = cluster.admit("b", g, p);
  // Keep both tenants runnable by re-feeding between decisions (a single-
  // component pipeline consumes its whole pending queue in one step).
  const auto feed = [&] {
    cluster.push(a, 64);
    cluster.push(b, 64);
  };
  feed();
  const TenantId first = step_once(cluster);
  feed();
  const TenantId second = step_once(cluster);
  feed();
  const TenantId third = step_once(cluster);
  ASSERT_NE(first, kNoTenant);
  ASSERT_NE(second, kNoTenant);
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

TEST(Server, TenantsProgressIndependentlyOfEachOther) {
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(single_cache());
  const TenantId fed = cluster.admit("fed", g, p);
  const TenantId starved = cluster.admit("starved", g, p);
  cluster.push(fed, 128);
  cluster.run_until_idle();
  cluster.drain_all();
  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed)].outputs, 128);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(starved)].outputs, 0);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(starved)].totals.firings, 0);
}

TEST(Server, SharedCacheInterferenceRaisesMissesOverSoloRuns) {
  // The contention story: the same work on the same geometry misses more
  // when a second tenant is thrashing the cache in between.
  const auto g = workloads::uniform_pipeline(10, 150);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;

  const auto run_with = [&](bool second_tenant) {
    Cluster cluster(single_cache());
    const TenantId a = cluster.admit("a", g, p);
    const TenantId b = second_tenant ? cluster.admit("b", g, p) : kNoTenant;
    for (int round = 0; round < 4; ++round) {
      cluster.push(a, 64);
      if (second_tenant) cluster.push(b, 64);
      cluster.run_until_idle();
    }
    cluster.drain_all();
    return cluster.report().tenants[0].totals;
  };

  const runtime::RunResult solo = run_with(false);
  const runtime::RunResult contended = run_with(true);
  // Identical work for tenant a either way...
  EXPECT_EQ(solo.firings, contended.firings);
  EXPECT_EQ(solo.sink_firings, contended.sink_firings);
  // ...but sharing the cache cannot reduce its misses.
  EXPECT_GE(contended.cache.misses, solo.cache.misses);
}

TEST(Server, DrainedTenantUnderMissAwareDoesNotStarveOthers) {
  // The hazard: a drained tenant's last miss rate can be 0 (it ran out of
  // input mid-step), which is exactly what miss-aware prefers. It must be
  // parked as idle -- not re-picked forever -- so fed tenants keep making
  // progress.
  const auto g = workloads::uniform_pipeline(8, 100);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(single_cache("miss-aware"));
  const TenantId drained = cluster.admit("drained", g, p);
  const TenantId fed_b = cluster.admit("fed-b", g, p);
  const TenantId fed_c = cluster.admit("fed-c", g, p);

  // Warm all three, then stop feeding the first.
  for (const TenantId t : {drained, fed_b, fed_c}) cluster.push(t, 32);
  cluster.run_until_idle();
  for (int round = 0; round < 6; ++round) {
    cluster.push(fed_b, 48);
    cluster.push(fed_c, 48);
    const std::int64_t steps = cluster.run_until_idle();
    EXPECT_GT(steps, 0) << "fed tenants starved in round " << round;
  }
  cluster.drain_all();
  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(drained)].outputs, 32);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed_b)].outputs, 32 + 6 * 48);
  EXPECT_EQ(report.tenants[static_cast<std::size_t>(fed_c)].outputs, 32 + 6 * 48);
}

TEST(Server, PerTenantSumsEqualSharedAggregateUnderBurstyArrivals) {
  // The accounting invariant must survive maximally clumped arrivals: some
  // tenants idle for whole bursts while others monopolize the cache.
  for (const std::string policy : {"round-robin", "miss-aware"}) {
    const ClusterReport report = run(bursty, policy);
    runtime::RunResult sum;
    for (const auto& t : report.tenants) sum += t.totals;
    EXPECT_EQ(sum.cache, shared_cache(report)) << policy;
    EXPECT_EQ(sum, report.aggregate) << policy;
  }
}

TEST(Server, RejectsDuplicateTenantNamesAndUnknownPolicies) {
  const auto g = workloads::uniform_pipeline(6, 50);
  const auto p = partition::pipeline_optimal_partition(g, 3 * 512).partition;
  Cluster cluster(single_cache());
  cluster.admit("a", g, p);
  EXPECT_THROW(cluster.admit("a", g, p), Error);

  try {
    Cluster bad(single_cache("bogus"));
    FAIL() << "expected ccs::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("valid tenant policies"), std::string::npos);
  }
}

}  // namespace
}  // namespace ccs::core
