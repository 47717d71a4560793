// Cross-validation of the axiomatic BC checker (src/model/) against the
// simulator — docs/TESTING.md, "Model conformance".
//
// Four layers:
//   1. the enumerator's axiomatic shape: specific outcomes each litmus
//      test must allow or forbid (fences restore SC where the paper says
//      they do, and only there);
//   2. the pinned golden tables: every allowed set rendered and compared
//      textually against tests/model_allowed_golden.txt, so any change to
//      the model's semantics shows up as a diff;
//   3. the SC reference inside the model: every outcome the golden
//      sequentially consistent interpreter produces for a battery test is
//      BC-allowed (SC is one of BC's executions);
//   4. soundness in-process: the full battery run on all three machine
//      flavors over both networks, every observed outcome checked for
//      membership in the allowed set — and the eager-flush fault shown to
//      produce a detected violation.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/run.hpp"
#include "model/battery.hpp"
#include "model/bc_model.hpp"
#include "model/litmus.hpp"
#include "ref/cell.hpp"
#include "ref/ref_machine.hpp"

namespace bcsim {
namespace {

using ir::Program;
using model::Outcome;

const Program& battery_test(const std::string& name) {
  static const std::vector<Program> battery = model::litmus_battery();
  const Program* t = model::find_litmus(battery, name);
  if (t == nullptr) throw std::runtime_error("no litmus named " + name);
  return *t;
}

/// True when some allowed outcome has exactly these observed load values.
bool allows_loads(const std::vector<Outcome>& allowed,
                  const std::vector<Word>& loads) {
  return std::any_of(allowed.begin(), allowed.end(),
                     [&](const Outcome& o) { return o.loads == loads; });
}

// --- layer 1: axiomatic shape ------------------------------------------

TEST(ModelAxioms, StoreBufferingAllowsBothStaleOnlyWithoutFences) {
  const auto sb = model::enumerate_allowed(battery_test("sb"));
  EXPECT_TRUE(allows_loads(sb, {0, 0}))
      << "both stores buffered past both loads is the canonical BC outcome";
  const auto fenced = model::enumerate_allowed(battery_test("sb-fence"));
  EXPECT_FALSE(allows_loads(fenced, {0, 0}))
      << "FLUSH-BUFFER between store and load must restore SC";
  EXPECT_TRUE(allows_loads(fenced, {1, 0}));
  EXPECT_TRUE(allows_loads(fenced, {0, 1}));
  EXPECT_TRUE(allows_loads(fenced, {1, 1}));
}

TEST(ModelAxioms, MessagePassingFenceForbidsStaleData) {
  // mp (no fence) may show the flag without the data...
  const auto mp = model::enumerate_allowed(battery_test("mp"));
  EXPECT_TRUE(allows_loads(mp, {0}));
  EXPECT_TRUE(allows_loads(mp, {42}));
  // ...but a CP-Synch flush between data and flag closes the window: the
  // reader's Await(y==1) then guarantees x=42.
  const auto fenced = model::enumerate_allowed(battery_test("mp-fence"));
  ASSERT_FALSE(fenced.empty());
  for (const Outcome& o : fenced) {
    ASSERT_EQ(o.loads.size(), 1u);
    EXPECT_EQ(o.loads[0], 42u) << "stale data past a fenced flag";
  }
}

TEST(ModelAxioms, LoadBufferingForbidden) {
  // Loads issue in order and stores cannot be read before they are
  // issued, so lb's (1,1) cycle is impossible.
  const auto lb = model::enumerate_allowed(battery_test("lb"));
  EXPECT_FALSE(allows_loads(lb, {1, 1}));
  EXPECT_TRUE(allows_loads(lb, {0, 0}));
}

TEST(ModelAxioms, CoherenceReadReadNeverRegresses) {
  const auto corr = model::enumerate_allowed(battery_test("corr"));
  EXPECT_FALSE(allows_loads(corr, {1, 0}))
      << "a thread's view of one location must be monotone";
  EXPECT_TRUE(allows_loads(corr, {0, 0}));
  EXPECT_TRUE(allows_loads(corr, {0, 1}));
  EXPECT_TRUE(allows_loads(corr, {1, 1}));
}

TEST(ModelAxioms, IriwReadersMayDisagree) {
  // BC is not multi-copy atomic: the two readers may see the independent
  // writes in opposite orders, fences or not.
  for (const char* name : {"iriw", "iriw-fence"}) {
    const auto a = model::enumerate_allowed(battery_test(name));
    EXPECT_TRUE(allows_loads(a, {0, 0})) << name;
  }
}

TEST(ModelAxioms, TwoLockTransitivePublish) {
  // t1 reads y==1 under lock 1, so t0's unlock(0) flush happened before:
  // x must be visible.
  const auto lt = model::enumerate_allowed(battery_test("lock-two"));
  EXPECT_FALSE(allows_loads(lt, {1, 0}));
  EXPECT_TRUE(allows_loads(lt, {1, 1}));
  EXPECT_TRUE(allows_loads(lt, {0, 0}));
  EXPECT_TRUE(allows_loads(lt, {0, 1}));
}

TEST(ModelAxioms, BarrierRestoresSc) {
  // Barrier arrival flushes and the rendezvous orders every pre-barrier
  // store before every post-barrier load: SB collapses to (1,1) and the
  // MP reader must see 7.
  const auto bsb = model::enumerate_allowed(battery_test("barrier-sb"));
  ASSERT_EQ(bsb.size(), 1u);
  EXPECT_EQ(bsb[0].loads, (std::vector<Word>{1, 1}));
  const auto bmp = model::enumerate_allowed(battery_test("barrier-mp"));
  ASSERT_EQ(bmp.size(), 1u);
  EXPECT_EQ(bmp[0].loads, (std::vector<Word>{7}));
}

TEST(ModelAxioms, ValidateRejectsMalformedTests) {
  const Program bad = model::litmus("bad-unlock", "", 1, 1, {{ir::Unlock(0)}});
  EXPECT_NE(model::validate(bad), "");
  EXPECT_THROW((void)model::enumerate_allowed(bad), std::invalid_argument);

  const Program never =
      model::litmus("bad-await", "", 1, 0, {{ir::St(0, 1)}, {ir::Await(0, 9)}});
  EXPECT_NE(model::validate(never), "") << "awaited value is never stored";

  const Program uneven = model::litmus("bad-barrier", "", 1, 0, {{ir::Bar()}, {ir::Ld(0)}});
  EXPECT_NE(model::validate(uneven), "") << "threads disagree on barrier count";

  // Ops only the SC reference interprets: the model has no rule for them.
  for (const ir::Op op : {ir::CsAdd(0, 1), ir::ReadLock(0), ir::CsLoad(0), ir::FetchAdd(0, 1)}) {
    const Program drf_only = model::litmus("bad-op", "", 1, 1, {{op}});
    EXPECT_NE(model::validate(drf_only), "") << "op kind " << static_cast<int>(op.kind);
    EXPECT_THROW((void)model::enumerate_allowed(drf_only), std::invalid_argument);
  }
}

TEST(ModelAxioms, FirstDivergenceFindsEarliestBadLoad) {
  const auto& t = battery_test("sb-fence");
  const auto allowed = model::enumerate_allowed(t);
  Outcome ok;
  ok.loads = {1, 0};
  ok.finals = {1, 1};
  EXPECT_EQ(model::first_divergence(allowed, ok), -1);
  Outcome bad;
  bad.loads = {0, 0};  // second load makes the prefix impossible
  bad.finals = {1, 1};
  EXPECT_EQ(model::first_divergence(allowed, bad), 1);
}

// --- layer 2: pinned golden tables -------------------------------------

TEST(ModelGolden, AllowedSetsMatchPinnedTables) {
  std::ifstream in(BCSIM_MODEL_GOLDEN);
  ASSERT_TRUE(in) << "cannot open " << BCSIM_MODEL_GOLDEN;
  std::stringstream want;
  want << in.rdbuf();

  std::string got;
  for (const Program& t : model::litmus_battery()) {
    got += model::render_allowed(t, model::enumerate_allowed(t));
  }
  EXPECT_EQ(got, want.str())
      << "model semantics or battery changed; if intentional, regenerate "
         "with: build/tools/bcsim model --print-allowed > "
         "tests/model_allowed_golden.txt";
}

// --- layer 3: the SC reference inside the model ------------------------

TEST(ModelScReference, EverySequentiallyConsistentOutcomeIsAllowed) {
  // The golden SC interpreter runs the battery unchanged (loads read
  // memory, fences and unsubscribes are no-ops, awaits block until the
  // value appears); each schedule seed is one SC interleaving, and every
  // one must land inside the BC allowed set. Tests whose allowed set is
  // exactly the SC set are the ones BC does not weaken.
  std::size_t sc_outcomes = 0;
  std::size_t sc_complete = 0;
  for (const Program& t : model::litmus_battery()) {
    const auto allowed = model::enumerate_allowed(t);
    std::set<Outcome> sc;
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
      const ref::RefResult r = ref::RefMachine(t, seed).run();
      ASSERT_FALSE(r.deadlocked) << t.name << " seed " << seed;
      const Outcome o = model::outcome_of(r.loads, r.final_locs);
      EXPECT_TRUE(model::outcome_allowed(allowed, o))
          << t.name << " seed " << seed << ": SC outcome " << model::render_outcome(t, o)
          << " is not BC-allowed";
      sc.insert(o);
    }
    sc_outcomes += sc.size();
    sc_complete += sc.size() == allowed.size() ? 1 : 0;
  }
  EXPECT_EQ(sc_outcomes, 46u) << "distinct SC outcomes over the battery";
  EXPECT_EQ(sc_complete, 10u) << "tests whose BC allowed set is exactly their SC set";
}

// --- layer 4: soundness against the simulator --------------------------

constexpr std::uint32_t kNodes = 16;

/// One machine run of `t` the way `bcsim model` runs it.
ir::RunResult run_battery_test(const Program& t, const char* flavor, const char* net,
                               std::uint64_t seed, const char* plan = "") {
  const ref::Cell c{.machine = {.nodes = kNodes,
                                .flavor = flavor,
                                .network = net,
                                .schedule_seed = seed,
                                .fault_plan = plan}};
  return ir::run_program(model::with_warmup(t, seed), ref::cell_config(c));
}

Outcome outcome(const ir::RunResult& r) { return model::outcome_of(r.loads, r.final_locs); }

TEST(ModelSoundness, BatteryObservedSubsetOfAllowed) {
  // Every flavor x both networks x a few seeds, full battery: each run's
  // observed outcome must be in the model's allowed set. The deep seed
  // sweep is the cli_model_smoke / cli_model_sweep ctest entries; this is
  // the in-process version with a first-divergence diagnosis on failure.
  for (const Program& t : model::litmus_battery()) {
    const auto allowed = model::enumerate_allowed(t);
    for (const char* f : {"wbi", "paper", "cbl-on-wbi"}) {
      for (const char* net : {"omega", "mesh"}) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
          const auto r = run_battery_test(t, f, net, seed);
          ASSERT_TRUE(r.completed) << t.name << " " << f << " seed " << seed << ": " << r.error;
          const Outcome got = outcome(r);
          const int d = model::first_divergence(allowed, got);
          EXPECT_TRUE(model::outcome_allowed(allowed, got))
              << t.name << " " << f << " " << net << " seed " << seed << ": observed "
              << model::render_outcome(t, got)
              << ", first divergence at "
              << (d >= 0 && d < static_cast<int>(got.loads.size())
                      ? model::load_label(t, static_cast<std::size_t>(d))
                      : std::string("finals"));
        }
      }
    }
  }
}

TEST(ModelSoundness, RuReachesTheWeakOutcomes) {
  // Statistical completeness spot-check: under RU (the only BC flavor)
  // the seed sweep must actually reach the weak outcomes the model
  // allows — mp's stale read and sb's (0,0). The seed-derived compute
  // jitter of the warm-up is what makes this converge; dozens of seeds
  // over both networks give a comfortable margin (each weak outcome
  // shows up in roughly 1 in 3 / 1 in 8 RU runs respectively).
  const auto& mp = battery_test("mp");
  const auto& sb = battery_test("sb");
  bool mp_stale = false;
  bool sb_both_stale = false;
  for (std::uint64_t seed = 0; seed < 64 && !(mp_stale && sb_both_stale); ++seed) {
    for (const char* net : {"omega", "mesh"}) {
      if (!mp_stale) {
        const auto r = run_battery_test(mp, "paper", net, seed);
        ASSERT_TRUE(r.completed) << r.error;
        if (outcome(r).loads == std::vector<Word>{0}) mp_stale = true;
      }
      if (!sb_both_stale) {
        const auto r = run_battery_test(sb, "paper", net, seed);
        ASSERT_TRUE(r.completed) << r.error;
        if (outcome(r).loads == std::vector<Word>{0, 0}) sb_both_stale = true;
      }
    }
  }
  EXPECT_TRUE(mp_stale) << "mp never showed the flag-overtakes-data outcome";
  EXPECT_TRUE(sb_both_stale) << "sb never showed (0,0)";
}

TEST(ModelSoundness, EagerFlushFaultIsDetected) {
  // The acceptance-criterion fault: eager-flush completes FLUSH-BUFFER
  // without the global-perform gate, so mp-fence on the RU mesh shows the
  // forbidden stale read — and the checker must call it out.
  const auto& t = battery_test("mp-fence");
  const auto allowed = model::enumerate_allowed(t);
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 8 && !caught; ++seed) {
    const auto r = run_battery_test(t, "paper", "mesh", seed, "eager-flush");
    if (!r.completed) continue;  // a stuck run is also a detection, but
                                 // the outcome check is the point here
    const Outcome got = outcome(r);
    if (!model::outcome_allowed(allowed, got)) {
      caught = true;
      const int d = model::first_divergence(allowed, got);
      ASSERT_GE(d, 0);
      ASSERT_LT(static_cast<std::size_t>(d), got.loads.size());
      EXPECT_EQ(got.loads[static_cast<std::size_t>(d)], 0u)
          << "the divergent read is the stale data word";
    }
  }
  EXPECT_TRUE(caught)
      << "eager-flush never produced a model-forbidden outcome in 8 seeds";
}

}  // namespace
}  // namespace bcsim
