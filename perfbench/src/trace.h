// Per-layer tracing for the end-to-end serving benchmark.
//
// Every span here is recorded from the benchmark's own files, around calls
// into the library's public API; nothing under src/ is instrumented:
//
//   * core / session  -- the benchmark times its calls into core::Planner
//                        and core::Cluster (plan, admit, push, run,
//                        rebalance, swap_out_idle, close) with timed().
//   * schedule        -- TimedPolicy wraps the real online rule and is
//                        registered in OnlineRegistry::global() under
//                        kTracedPolicy; a traced run selects it through
//                        StreamOptions::policy.
//   * placement       -- TimedPlacement wraps a real placement rule and is
//                        registered in PlacementRegistry::global() under
//                        traced_placement(key).
//   * runtime/iomodel -- TimedCache decorates an iomodel::LruCache; the
//                        replay in e2e_bench.cc runs standalone core::Streams
//                        over it, so engine self time is step time minus
//                        policy time minus cache time.
//
// Decorators built by registry factories cannot take arguments, so they
// bind to `active_trace` when they are constructed. Construction happens on
// the controlling thread (admission and rehydration), and spans are atomic
// because run_threads() workers step policies concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "iomodel/cache.h"
#include "schedule/online.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one layer boundary and the host time they took.
struct Span {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};

  void add(std::int64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

/// Runs `f()`, timing it into `span` unless `span` is null (tracing off).
template <typename F>
decltype(auto) timed(Span* span, F&& f) {
  if (span == nullptr) return f();
  struct Stop {
    Span* span;
    std::int64_t start;
    ~Stop() { span->add(now_ns() - start); }
  } stop{span, now_ns()};
  return f();
}

/// Every span and layer counter one traced phase collects.
struct LayerTrace {
  Span plan, admit, push, run, rebalance, swap_out, close;  // core, session
  Span place;                                                // placement
  Span next_step;                                            // schedule
  std::atomic<std::int64_t> planned_firings{0};
  Span step;  // core::Stream::step in the replay (engine + policy + cache)
  Span l1;    // TimedCache calls in the replay
};

/// The trace decorators bind to at construction; null while tracing is off.
inline LayerTrace* active_trace = nullptr;

/// OnlineRegistry key of the timed online rule ("auto" underneath).
inline constexpr const char* kTracedPolicy = "perfbench-traced";

/// PlacementRegistry key of the timed wrapper around placement `key`.
inline std::string traced_placement(const std::string& key) {
  return "perfbench-traced-" + key;
}

/// The real online rule, with next_step() timed. It mirrors the wrapped
/// rule's buffer sizing and component order, so an engine driven by it
/// executes exactly what the wrapped rule would.
class TimedPolicy final : public ccs::schedule::OnlinePolicy {
 public:
  TimedPolicy(std::unique_ptr<ccs::schedule::OnlinePolicy> inner, const ccs::sdf::SdfGraph& g,
              LayerTrace* trace)
      : OnlinePolicy(inner->name(), g), inner_(std::move(inner)), trace_(trace) {
    caps_ = inner_->buffer_caps();
    k_ = inner_->num_components();
    for (std::int64_t c = 0; c < k_; ++c) members_.push_back(inner_->members(c));
    source_ = inner_->source();
    sink_ = inner_->sink();
  }

  std::int64_t next_component(const ccs::schedule::EngineView& view) const override {
    return inner_->next_component(view);
  }

  ccs::schedule::StepPlan next_step(const ccs::schedule::EngineView& view) override {
    const std::int64_t start = now_ns();
    ccs::schedule::StepPlan plan = inner_->next_step(view);
    trace_->next_step.add(now_ns() - start);
    trace_->planned_firings.fetch_add(static_cast<std::int64_t>(plan.firings.size()),
                                      std::memory_order_relaxed);
    return plan;
  }

  std::vector<ccs::sdf::NodeId> plan_drain(const ccs::schedule::EngineView& view) override {
    return inner_->plan_drain(view);
  }

  std::int64_t batch_credit(std::int64_t min_outputs) const override {
    return inner_->batch_credit(min_outputs);
  }

 private:
  std::unique_ptr<ccs::schedule::OnlinePolicy> inner_;
  LayerTrace* trace_;
};

/// A real placement rule, with place() timed.
class TimedPlacement final : public ccs::core::PlacementPolicy {
 public:
  TimedPlacement(std::unique_ptr<ccs::core::PlacementPolicy> inner, LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  ccs::core::WorkerId place(const ccs::core::PlacementRequest& request,
                            const std::vector<ccs::core::ClusterWorkerStatus>& workers) override {
    return timed(&trace_->place, [&] { return inner_->place(request, workers); });
  }

  bool adaptive() const noexcept override { return inner_->adaptive(); }

 private:
  std::unique_ptr<ccs::core::PlacementPolicy> inner_;
  LayerTrace* trace_;
};

/// A fully associative LRU cache whose every call is timed into a span.
class TimedCache final : public ccs::iomodel::CacheSim {
 public:
  TimedCache(const ccs::iomodel::CacheConfig& config, Span* span)
      : CacheSim(config.block_words), inner_(config), span_(span) {}

  void access(ccs::iomodel::Addr addr, ccs::iomodel::AccessMode mode) override {
    timed(span_, [&] { inner_.access(addr, mode); });
  }
  void flush() override { inner_.flush(); }
  bool contains(ccs::iomodel::Addr addr) const override { return inner_.contains(addr); }
  const ccs::iomodel::CacheStats& stats() const override { return inner_.stats(); }
  const ccs::iomodel::CacheConfig& config() const override { return inner_.config(); }

 protected:
  void do_access_blocks(ccs::iomodel::BlockId first, std::int64_t count,
                        ccs::iomodel::AccessMode mode) override {
    timed(span_, [&] { inner_.access_blocks(first, count, mode); });
  }

 private:
  ccs::iomodel::LruCache inner_;
  Span* span_;
};

/// Registers kTracedPolicy and traced_placement(key) for each key in
/// `placements`. Call once, before any traced cluster is built.
inline void register_traced_layers(const std::vector<std::string>& placements) {
  ccs::schedule::OnlineRegistry::global().add(
      kTracedPolicy,
      {[](const ccs::sdf::SdfGraph& g, const ccs::partition::Partition& p,
          const ccs::schedule::OnlineContext& ctx) -> std::unique_ptr<ccs::schedule::OnlinePolicy> {
         return std::make_unique<TimedPolicy>(
             ccs::schedule::OnlineRegistry::global().build("auto", g, p, ctx), g, active_trace);
       },
       nullptr, "the auto online rule, with next_step() timed"});
  for (const std::string& key : placements) {
    ccs::core::PlacementRegistry::global().add(
        traced_placement(key),
        {[key] {
           return std::make_unique<TimedPlacement>(
               ccs::core::PlacementRegistry::global().find(key).build(), active_trace);
         },
         "the " + key + " placement rule, with place() timed"});
  }
}

}  // namespace perfbench
