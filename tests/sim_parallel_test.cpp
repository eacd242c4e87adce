// Conservative parallel engine mechanics (sim/parallel.hpp): window
// execution, the deterministic cross-LP mailbox merge, and the
// determinism contract's core claim — same seed ⇒ same combined digest
// for any worker count.  These tests build small synthetic LP graphs
// directly on ParallelEngine; tests/parallel_scaling_test.cpp covers the
// topology-derived fabric workload and SimCluster partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/process.hpp"
#include "trace/trace.hpp"

namespace acc {
namespace {

using sim::Engine;
using sim::ParallelConfig;
using sim::ParallelEngine;

ParallelConfig config(std::size_t threads, Time lookahead) {
  ParallelConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = lookahead;
  return cfg;
}

// ---------------------------------------------------------------------
// Engine window primitive
// ---------------------------------------------------------------------

TEST(EngineWindow, RunsStrictlyBeforeTheEdge) {
  Engine eng;
  std::vector<int> ran;
  eng.schedule_at(Time::nanos(0), [&] { ran.push_back(0); });
  eng.schedule_at(Time::nanos(5), [&] { ran.push_back(5); });
  eng.schedule_at(Time::nanos(10), [&] { ran.push_back(10); });  // at edge
  eng.run_window(Time::nanos(10));
  // Events at exactly the edge belong to the next window.
  EXPECT_EQ(ran, (std::vector<int>{0, 5}));
  EXPECT_EQ(eng.now(), Time::nanos(5));  // no idle-advance to the edge
  EXPECT_EQ(eng.pending(), 1u);
  eng.run_window(Time::nanos(20));
  EXPECT_EQ(ran, (std::vector<int>{0, 5, 10}));
  EXPECT_EQ(eng.pending(), 0u);
}

// ---------------------------------------------------------------------
// Construction and discipline violations
// ---------------------------------------------------------------------

TEST(ParallelEngine, MultiLpRequiresPositiveLookahead) {
  EXPECT_THROW(ParallelEngine(2, config(1, Time::zero())),
               std::invalid_argument);
  EXPECT_THROW(ParallelEngine(0, config(1, Time::nanos(1))),
               std::invalid_argument);
  EXPECT_THROW(ParallelEngine(2, config(0, Time::nanos(1))),
               std::invalid_argument);
  // Single LP: zero lookahead is valid — the one-LP cluster partition.
  ParallelEngine single(1, config(4, Time::zero()));
  EXPECT_EQ(single.lp_count(), 1u);
  // Workers are clamped to the LP count — extra threads would only idle.
  EXPECT_EQ(single.threads(), 1u);
}

TEST(ParallelEngine, CrossLpPostBelowLookaheadThrows) {
  ParallelEngine peng(2, config(1, Time::micros(1)));
  EXPECT_THROW(peng.post(0, 1, Time::nanos(999), [] {}), std::logic_error);
  // Same-LP posts take the direct schedule path: any delay is legal.
  peng.post(0, 0, Time::nanos(1), [] {});
  peng.post(0, 1, Time::micros(1), [] {});  // exactly lookahead: legal
  peng.run();
  EXPECT_EQ(peng.events_executed(), 2u);
}

TEST(ParallelEngine, PostNamingAnotherLpThrows) {
  // Inside run() only the executing LP may post: a callback on LP 2 that
  // names LP 1 as the sender would measure the lookahead from LP 1's
  // clock and, at 4 threads, append to LP 1's worker's outbox.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelEngine peng(4, config(threads, Time::nanos(100)));
    ParallelEngine* pp = &peng;
    bool ran = false;
    peng.lp(2).schedule_at(Time::nanos(100), [pp, &ran] {
      pp->post(1, 3, Time::nanos(100), [&ran] { ran = true; });
    });
    try {
      peng.run();
      FAIL() << "expected the misattributed post to throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("LP 2 posted as LP 1"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(ran) << "threads=" << threads;
    // Outside run() the caller posts for any source.
    peng.post(1, 3, Time::nanos(100), [&ran] { ran = true; });
    peng.run();
    EXPECT_TRUE(ran) << "threads=" << threads;
  }
}

TEST(ParallelEngine, PreRunPostIntoTheDestinationsPastThrows) {
  // A caller post is timed from its source's clock, which may trail the
  // destination's after a run: the drain refuses to schedule it.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelEngine peng(4, config(threads, Time::nanos(100)));
    peng.lp(1).schedule_at(Time::micros(1), [] {});
    peng.run();
    peng.post(0, 1, Time::nanos(100), [] {});
    EXPECT_THROW(peng.run(), std::logic_error) << "threads=" << threads;
  }
}

TEST(ParallelEngine, ShardExceptionPropagatesOutOfRun) {
  // LPs 1 and 2 throw in the same window.  At 2 threads they run on
  // different workers (LP i on worker i % threads), the lower LP on a
  // helper and the higher on the caller; at 4 each has its own worker.
  // Whichever finishes first, run() must rethrow LP 1's exception after
  // joining its helpers, and the engine must be destroyed cleanly.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    for (int rep = 0; rep < 8; ++rep) {
      ParallelEngine peng(4, config(threads, Time::micros(1)));
      peng.lp(1).schedule_at(Time::nanos(10), [] {
        throw std::runtime_error("lp1 exploded");
      });
      peng.lp(2).schedule_at(Time::nanos(10), [] {
        throw std::runtime_error("lp2 exploded");
      });
      peng.lp(0).schedule_at(Time::nanos(10), [] {});
      peng.lp(3).schedule_at(Time::nanos(10), [] {});
      try {
        peng.run();
        FAIL() << "expected the shard exception to escape run()";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lp1 exploded") << "threads=" << threads;
      }
      // The failed window's other exception is not replayed later.
      EXPECT_NO_THROW(peng.run()) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Mailbox merge order
// ---------------------------------------------------------------------

TEST(ParallelEngine, MailboxMergeIsCanonicalAcrossThreadCounts) {
  // LP1 and LP2 both post two events to LP0 for the *same* destination
  // instant; LP0 also has its own event there, scheduled at setup time.
  // The required order is: LP0's own event (earliest sequence), then
  // src-LP ascending, then post order within a source — independent of
  // which worker ran which shard.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ParallelEngine peng(3, config(threads, Time::nanos(10)));
    // Execution log: written only by LP0 callbacks, i.e. LP-confined.
    std::vector<std::pair<int, int>> order;  // (src, post index)
    peng.lp(0).schedule_at(Time::nanos(10), [&] { order.push_back({0, 0}); });
    for (std::size_t src : {std::size_t{1}, std::size_t{2}}) {
      ParallelEngine* pp = &peng;
      std::vector<std::pair<int, int>>* log = &order;
      const int s = static_cast<int>(src);
      peng.lp(src).schedule_at(Time::nanos(0), [pp, log, s, src] {
        pp->post(src, 0, Time::nanos(10), [log, s] { log->push_back({s, 0}); });
        pp->post(src, 0, Time::nanos(10), [log, s] { log->push_back({s, 1}); });
      });
    }
    peng.run();
    const std::vector<std::pair<int, int>> expected = {
        {0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    EXPECT_EQ(order, expected) << "threads=" << threads;
    EXPECT_EQ(peng.cross_posts(), 4u);
  }
}

TEST(ParallelEngine, MailboxKeepsFifoOrderPerSourceUnderLoad) {
  // A single source streams many posts into one destination, several per
  // window; the destination must observe them in exact post order.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ParallelEngine peng(2, config(threads, Time::nanos(100)));
    std::vector<int> seen;
    ParallelEngine* pp = &peng;
    std::vector<int>* out = &seen;
    for (int k = 0; k < 64; ++k) {
      peng.lp(1).schedule_at(Time::nanos(k % 4), [pp, out, k] {
        pp->post(1, 0, Time::nanos(100 + k % 3), [out, k] {
          out->push_back(k);
        });
      });
    }
    peng.run();
    ASSERT_EQ(seen.size(), 64u);
    // Arrivals sort by (arrival time, post order), and posts happen in
    // source-execution order, i.e. by (inject time, schedule order) =
    // (k % 4, k).  Reconstruct that expectation independently.
    std::vector<std::tuple<int, int, int>> keyed;  // (arrival, k%4, k)
    for (int k = 0; k < 64; ++k) {
      keyed.emplace_back(k % 4 + 100 + k % 3, k % 4, k);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<int> expected;
    for (const auto& t : keyed) expected.push_back(std::get<2>(t));
    EXPECT_EQ(seen, expected) << "threads=" << threads;
  }
}

/// One planned cross-LP post: `src` posts to `dst`, arriving at
/// `arrival_ns`; `idx` is its position in src's post order.
struct PlannedPost {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::int64_t arrival_ns = 0;
  std::uint32_t idx = 0;
};
/// An LP-local event on `src` at `at_ns` that makes `posts` in order.
struct Emitter {
  std::size_t src = 0;
  std::int64_t at_ns = 0;
  std::vector<PlannedPost> posts;
};
using Arrival = std::tuple<std::int64_t, std::size_t, std::uint32_t>;

TEST(ParallelEngine, OutboxDrainMatchesSortedReferenceAt64Lps) {
  // Seeded property test of the barrier drain at fabric-like scale: 64
  // LPs, ~60 windows, random sources posting bursts to random (often
  // shared) destinations, plus posts made before run().  Each
  // destination must execute its arrivals in (arrival time, src LP, post
  // order) — reconstructed here from the plan alone — at every worker
  // count.
  //
  // Every emitter post uses delay == lookahead, so posts that arrive at
  // one instant were made at one instant, inside one window, and meet at
  // one barrier.  Pre-run posts arrive at 25 mod 50 ns, emitter posts at
  // 0 mod 50 ns, so the two kinds never share an instant.
  constexpr std::size_t kLps = 64;
  constexpr std::int64_t kLookaheadNs = 100;
  constexpr std::int64_t kStepNs = 50;
  constexpr std::int64_t kSpanNs = 6000;
  std::mt19937_64 rng(0x5eed0bb5);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto pick_dst = [&](std::size_t src) {
    // Half the posts go to 8 hot LPs, so many sources hit one
    // destination at one instant.
    const std::size_t dst = rng() % 2 == 0 ? pick(8) * 8 : pick(kLps);
    return dst == src ? (dst + 1) % kLps : dst;
  };

  std::vector<PlannedPost> pre_run;
  std::vector<Emitter> emitters;
  for (std::size_t src = 0; src < kLps; ++src) {
    std::uint32_t idx = 0;
    for (int k = 0; k < 4; ++k) {
      const auto j = static_cast<std::int64_t>(pick(6));
      pre_run.push_back({src, pick_dst(src),
                         kLookaheadNs + 25 + kStepNs * j, idx++});
    }
    std::vector<std::int64_t> times;
    for (int e = 0; e < 24; ++e) {
      times.push_back(static_cast<std::int64_t>(pick(kSpanNs / kStepNs)) *
                      kStepNs);
    }
    // Ascending, so plan order is src's execution order (equal times
    // run in schedule order).
    std::sort(times.begin(), times.end());
    for (std::int64_t at : times) {
      Emitter em{src, at, {}};
      const std::size_t dst = pick_dst(src);
      const std::size_t burst = 2 + pick(3);
      for (std::size_t b = 0; b < burst; ++b) {
        em.posts.push_back({src, dst, at + kLookaheadNs, idx++});
      }
      em.posts.push_back({src, pick_dst(src), at + kLookaheadNs, idx++});
      emitters.push_back(std::move(em));
    }
  }

  // Independent reference: every post, grouped by destination, sorted.
  std::vector<std::vector<Arrival>> expected(kLps);
  std::size_t total_posts = 0;
  auto expect_post = [&](const PlannedPost& p) {
    expected[p.dst].emplace_back(p.arrival_ns, p.src, p.idx);
    ++total_posts;
  };
  for (const PlannedPost& p : pre_run) expect_post(p);
  for (const Emitter& em : emitters) {
    for (const PlannedPost& p : em.posts) expect_post(p);
  }
  std::size_t up = 0, down = 0, tied = 0;
  for (auto& log : expected) {
    std::sort(log.begin(), log.end());
    for (std::size_t i = 1; i < log.size(); ++i) {
      if (std::get<0>(log[i]) == std::get<0>(log[i - 1]) &&
          std::get<1>(log[i]) != std::get<1>(log[i - 1])) {
        ++tied;
      }
    }
  }
  for (const Emitter& em : emitters) {
    (em.posts.front().dst > em.src ? up : down) += 1;
  }
  // The plan exercises what the drain must get right.
  EXPECT_GT(up, 100u);
  EXPECT_GT(down, 100u);
  EXPECT_GT(tied, 100u) << "too few equal-instant arrivals across sources";

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    ParallelEngine peng(kLps, config(threads, Time::nanos(kLookaheadNs)));
    // logs[dst] is written only by dst's callbacks (LP-confined).
    std::vector<std::vector<Arrival>> logs(kLps);
    ParallelEngine* pp = &peng;
    auto* out = &logs;
    auto post = [pp, out](const PlannedPost& p, Time delay) {
      pp->post(p.src, p.dst, delay, [pp, out, p] {
        (*out)[p.dst].emplace_back(pp->lp(p.dst).now().as_nanos(), p.src,
                                   p.idx);
      });
    };
    for (const PlannedPost& p : pre_run) post(p, Time::nanos(p.arrival_ns));
    for (const Emitter& em : emitters) {
      const Emitter* e = &em;
      peng.lp(em.src).schedule_at(Time::nanos(em.at_ns), [post, e] {
        for (const PlannedPost& p : e->posts) {
          post(p, Time::nanos(kLookaheadNs));
        }
      });
    }
    peng.run();
    EXPECT_EQ(peng.cross_posts(), total_posts) << "threads=" << threads;
    EXPECT_GT(peng.windows(), 50u);
    // Equal to one reference at every worker count, hence identical
    // across worker counts.
    for (std::size_t dst = 0; dst < kLps; ++dst) {
      EXPECT_EQ(logs[dst], expected[dst])
          << "dst=" << dst << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Determinism across worker counts
// ---------------------------------------------------------------------

struct RingCtx {
  ParallelEngine* peng = nullptr;
  // One slot per LP; only the owning LP's callbacks write slot i.
  std::vector<std::uint64_t> token_sum;
};

void ring_hop(RingCtx* c, std::uint32_t lp, std::uint32_t remaining,
              std::uint64_t token) {
  Engine& eng = c->peng->lp(lp);
  token = token * 6364136223846793005ULL + lp;
  c->token_sum[lp] += token;
  eng.tracer().instant(trace::Category::kNet, static_cast<int>(lp),
                       "ring/hop", eng.now(),
                       static_cast<std::int64_t>(token >> 32));
  if (remaining == 0) return;
  const std::uint32_t next =
      (lp + 1) % static_cast<std::uint32_t>(c->peng->lp_count());
  c->peng->post(lp, next, Time::nanos(50),
                [c, next, remaining, token] {
                  ring_hop(c, next, remaining - 1, token);
                });
}

/// Runs `tokens` tokens 96 hops around an `lps`-LP ring and returns the
/// run's (combined digest, events, per-LP token fold).
std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> ring_run(
    std::size_t threads, std::size_t tokens, std::size_t lps = 8) {
  ParallelEngine peng(lps, config(threads, Time::nanos(50)));
  RingCtx ctx;
  ctx.peng = &peng;
  ctx.token_sum.assign(peng.lp_count(), 0);
  for (std::size_t i = 0; i < peng.lp_count(); ++i) {
    peng.lp(i).tracer().enable(/*ring_capacity=*/32);
  }
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::uint32_t lp = static_cast<std::uint32_t>(t % peng.lp_count());
    RingCtx* cp = &ctx;
    const std::uint64_t seed_token = 0x9E3779B97F4A7C15ULL * (t + 1);
    peng.lp(lp).schedule_at(Time::nanos(static_cast<std::int64_t>(t % 7)),
                            [cp, lp, seed_token] {
                              ring_hop(cp, lp, 96, seed_token);
                            });
  }
  const Time end = peng.run();
  EXPECT_GT(end, Time::zero());
  EXPECT_GT(peng.windows(), 1u);
  EXPECT_GT(peng.cross_posts(), 0u);
  std::uint64_t fold = 0;
  for (std::uint64_t v : ctx.token_sum) fold = fold * 1099511628211ULL + v;
  return {peng.combined_digest(), peng.events_executed(), fold};
}

TEST(ParallelEngine, RingDigestIndependentOfWorkerCount) {
  // LP i runs on worker i % threads, so 3 workers on 8 LPs and 4 on 5
  // give the workers unequal shares; 8 on 8 gives each worker one LP.
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> cases =
      {{8, {2, 3, 4, 8}}, {5, {4}}};
  for (const auto& [lps, thread_counts] : cases) {
    const auto reference = ring_run(/*threads=*/1, /*tokens=*/24, lps);
    EXPECT_GT(std::get<1>(reference), 24u * 96u);
    for (std::size_t threads : thread_counts) {
      const auto run = ring_run(threads, 24, lps);
      EXPECT_EQ(std::get<0>(run), std::get<0>(reference))
          << "digest diverged at lps=" << lps << " threads=" << threads;
      EXPECT_EQ(std::get<1>(run), std::get<1>(reference))
          << "event count diverged at lps=" << lps << " threads=" << threads;
      EXPECT_EQ(std::get<2>(run), std::get<2>(reference))
          << "token fold diverged at lps=" << lps << " threads=" << threads;
    }
  }
}

TEST(ParallelEngine, SingleLpPreservesEngineDigest) {
  // The one-LP partition every SimCluster golden rests on: LP 0 of a
  // one-LP engine must produce the exact dispatch order of a plain
  // Engine and expose that lane's tracer digest as the combined digest.
  auto build = [](Engine& eng, std::vector<int>& ran) {
    eng.tracer().enable(/*ring_capacity=*/16);
    for (int k = 0; k < 32; ++k) {
      eng.schedule_at(Time::nanos(k % 5), [&eng, &ran, k] {
        ran.push_back(k);
        eng.tracer().instant(trace::Category::kApp, k % 3, "single/ev",
                             eng.now(), k);
        if (k % 4 == 0) {
          eng.schedule(Time::nanos(2), [&ran, k] { ran.push_back(1000 + k); });
        }
      });
    }
  };
  Engine serial;
  std::vector<int> serial_ran;
  build(serial, serial_ran);
  serial.run();

  ParallelEngine peng(1, config(4, Time::zero()));
  std::vector<int> lp_ran;
  build(peng.lp(0), lp_ran);
  peng.run();

  EXPECT_EQ(lp_ran, serial_ran);
  EXPECT_EQ(peng.events_executed(), serial.events_executed());
  EXPECT_EQ(peng.combined_digest(), serial.tracer().digest());
  EXPECT_EQ(peng.windows(), 1u);  // one full-horizon window
}

TEST(ParallelEngine, StatsAccountEveryShardEvent) {
  ParallelEngine peng(4, config(2, Time::nanos(10)));
  for (std::size_t lp = 0; lp < 4; ++lp) {
    for (int k = 0; k < 5; ++k) {
      peng.lp(lp).schedule_at(Time::nanos(k * 10), [] {});
    }
  }
  peng.run();
  const auto stats = peng.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.events, 5u);
    total += s.events;
  }
  EXPECT_EQ(total, peng.events_executed());
}


// ---------------------------------------------------------------------
// Pre-run posts: mailboxes count as pending work
// ---------------------------------------------------------------------

TEST(ParallelEngine, PreRunPostIsNotDroppedWhenQueuesStartEmpty) {
  // Regression: work posted before the first window lives only in a
  // mailbox.  run() used to test the shard queues for emptiness before
  // draining, see nothing, and return at t=0 with the post still boxed.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ParallelEngine peng(2, config(threads, Time::micros(1)));
    bool ran = false;
    peng.post(0, 1, Time::micros(1), [&ran] { ran = true; });
    const Time end = peng.run();
    EXPECT_TRUE(ran) << "threads=" << threads;
    EXPECT_EQ(peng.events_executed(), 1u);
    EXPECT_EQ(end, Time::micros(1));
  }
}

TEST(ParallelEngine, PreRunPostsChainAndKeepCanonicalOrder) {
  // Property shape: N pre-run posts fanned out from LP0 across the LPs,
  // each chaining one more cross-LP hop back to LP0 from the LP it runs
  // on (0 -> src -> 0).  Every hop must run, and the destination-side
  // order must match the serial reference exactly.
  std::vector<std::vector<int>> logs_by_threads;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    ParallelEngine peng(4, config(threads, Time::nanos(100)));
    // Only LP0 callbacks write the log (single-writer discipline).
    std::vector<int> log;
    ParallelEngine* pp = &peng;
    std::vector<int>* out = &log;
    for (int k = 0; k < 16; ++k) {
      const std::size_t src = static_cast<std::size_t>(k) % 4;
      if (src == 0) {
        // Same-LP pre-run post: direct schedule path.
        peng.post(0, 0, Time::nanos(100 + k), [out, k] {
          out->push_back(k);
        });
        continue;
      }
      peng.post(0, src, Time::nanos(100 + k), [pp, out, src, k] {
        // The hop itself was boxed pre-run; running on `src`, it chains
        // one more back to LP0.
        pp->post(src, 0, Time::nanos(100), [out, k] {
          out->push_back(1000 + k);
        });
      });
    }
    peng.run();
    EXPECT_EQ(log.size(), 16u) << "threads=" << threads;
    logs_by_threads.push_back(std::move(log));
  }
  ASSERT_EQ(logs_by_threads.size(), 3u);
  EXPECT_EQ(logs_by_threads[1], logs_by_threads[0]);
  EXPECT_EQ(logs_by_threads[2], logs_by_threads[0]);
}

TEST(ParallelEngine, BackToBackRunsKeepEveryPostAndItsOrder) {
  // Three run() calls on one engine, with cross-LP posts made by the
  // caller between them.  At 4 threads each run starts and joins its
  // own helpers; none may still be reading the last run's barrier state
  // while the caller posts and starts the next run (TSan checks this in
  // CI).
  // Every post must run, in the order the 1-thread engine runs them.
  constexpr std::size_t kLps = 6;
  auto three_runs = [](std::size_t threads) {
    ParallelEngine peng(kLps, config(threads, Time::nanos(20)));
    // logs[lp] is written only by lp's callbacks (LP-confined).
    std::vector<std::vector<int>> logs(kLps);
    ParallelEngine* pp = &peng;
    auto* out = &logs;
    for (int round = 0; round < 3; ++round) {
      for (std::size_t src = 0; src < kLps; ++src) {
        for (std::size_t k = 0; k < 4; ++k) {
          const std::size_t dst = (src + 1 + k) % kLps;
          const int tag = round * 100 + static_cast<int>(src * 10 + k);
          peng.post(src, dst, Time::nanos(20 + static_cast<int>(k)),
                    [pp, out, src, dst, tag] {
                      (*out)[dst].push_back(tag);
                      // Chain one hop back, inside this run.
                      pp->post(dst, src, Time::nanos(20), [out, src, tag] {
                        (*out)[src].push_back(1000 + tag);
                      });
                    });
        }
      }
      peng.run();
    }
    EXPECT_EQ(peng.cross_posts(), 3u * kLps * 4u * 2u)
        << "threads=" << threads;
    return logs;
  };
  const auto reference = three_runs(1);
  std::size_t ran = 0;
  for (const auto& log : reference) ran += log.size();
  EXPECT_EQ(ran, 3u * kLps * 4u * 2u);
  EXPECT_EQ(three_runs(4), reference);
}

// This process's thread count from /proc/self/status, or -1 when it
// cannot be read.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ParallelEngine, NoHelperThreadOutlivesRun) {
  // Helper threads live only inside run(): building an engine starts
  // none, and each run() joins its own before it returns.  A helper
  // parked between runs would sleep at the window barrier and pay a
  // wake-up on the next window.
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is not readable";
  constexpr std::size_t kLps = 20;
  ParallelEngine peng(kLps, config(4, Time::nanos(10)));
  ASSERT_EQ(peng.threads(), 4u);
  const int built = process_threads();
  std::vector<int> ran(kLps, 0);  // ran[dst] is written only on LP dst
  for (int round = 0; round < 2; ++round) {
    for (std::size_t src = 0; src < kLps; ++src) {
      const std::size_t dst = (src + 7) % kLps;
      peng.post(src, dst, Time::nanos(10), [&ran, dst] { ++ran[dst]; });
    }
    peng.run();
  }
  const int after = process_threads();
  EXPECT_EQ(built, before);
  EXPECT_EQ(after, before);
  EXPECT_EQ(ran, std::vector<int>(kLps, 2));
}

// ---------------------------------------------------------------------
// Watchdog under windowed execution
// ---------------------------------------------------------------------

TEST(ParallelEngine, WatchdogBudgetSeedsEveryShard) {
  // The budget is set on LP0 only, but the runaway chain ping-pongs
  // between the LPs — at any instant the next event may live on a shard
  // whose own budget was never set, or purely in a mailbox.  run() must
  // still stop the run instead of spinning windows forever.
  ParallelEngine peng(2, config(2, Time::micros(1)));
  peng.lp(0).set_time_budget(Time::micros(200));
  // The chain refers to `hop` by reference: a closure owning the
  // function it is stored in would keep itself alive forever (a leak).
  std::function<void(std::size_t)> hop;
  hop = [&peng, &hop](std::size_t at) {
    const std::size_t next = 1 - at;
    peng.post(at, next, Time::micros(1), [&hop, next] { hop(next); });
  };
  peng.lp(0).schedule_at(Time::zero(), [&hop] { hop(0); });
  EXPECT_THROW(peng.run(), sim::WatchdogTimeout);
}

TEST(ParallelEngine, WatchdogFiresAtTheBarrierWhenWorkIsBeyondBudget) {
  // A single pre-run post far past the budget: no shard ever executes an
  // event, so only the barrier-side check can report the stall.
  ParallelEngine peng(2, config(2, Time::micros(1)));
  peng.lp(1).set_time_budget(Time::micros(10));
  peng.post(0, 1, Time::millis(5), [] {});
  try {
    peng.run();
    FAIL() << "expected the sim-time budget to stop the run";
  } catch (const sim::WatchdogTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
    EXPECT_NE(what.find("pending"), std::string::npos) << what;
  }
}

sim::Process forever_delay(Engine& eng) {
  for (;;) co_await sim::Delay{eng, Time::micros(5)};
}

TEST(ParallelEngine, JoinAppendsStuckReportOnParallelWatchdog) {
  // The ProcessGroup watchdog contract under the parallel scheduler:
  // when the budget stops the run, join() names the processes that never
  // finished — same behaviour the serial engine always had.
  ParallelEngine peng(2, config(2, Time::micros(1)));
  peng.lp(0).set_time_budget(Time::micros(100));
  sim::ProcessGroup group(peng);
  group.spawn_on(1, forever_delay(peng.lp(1)), "spinner");
  try {
    group.join();
    FAIL() << "expected WatchdogTimeout out of join()";
  } catch (const sim::WatchdogTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spinner"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace acc
