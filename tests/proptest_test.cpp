// Harness self-tests: the registry's built-in coverage, the replayable
// seed contract, and — most importantly — that injected failures shrink
// to locally minimal counterexamples with compilable fixtures.
#include "src/proptest/property.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "src/proptest/domain.h"

namespace cvr::proptest {
namespace {

using core::SlotProblem;

TEST(Registry, HasAtLeastTwelveUniqueProperties) {
  const Registry& registry = Registry::instance();
  EXPECT_GE(registry.properties().size(), 12u);
  std::set<std::string> names;
  for (const auto& property : registry.properties()) {
    EXPECT_TRUE(names.insert(property->name()).second)
        << "duplicate name " << property->name();
  }
}

TEST(Registry, SpansCoreSimFaultsAndProto) {
  std::set<std::string> prefixes;
  for (const auto& property : Registry::instance().properties()) {
    const std::string& name = property->name();
    prefixes.insert(name.substr(0, name.find('.')));
  }
  for (const char* required : {"core", "util", "net", "faults", "proto"}) {
    EXPECT_TRUE(prefixes.count(required)) << "no properties under " << required;
  }
}

TEST(Registry, FindIsExactMatch) {
  const Registry& registry = Registry::instance();
  EXPECT_NE(registry.find("core.dv_scan_heap_identical"), nullptr);
  EXPECT_EQ(registry.find("core.dv_scan_heap"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
}

TEST(Registry, AddRejectsDuplicatesAndNull) {
  Registry fresh;
  fresh.add(make_property("x", 10, constant(1), [](const int&) { return true; }));
  EXPECT_THROW(fresh.add(make_property("x", 10, constant(1),
                                       [](const int&) { return true; })),
               std::invalid_argument);
  EXPECT_THROW(fresh.add(nullptr), std::invalid_argument);
}

TEST(AllBuiltins, PassOnAReducedBudget) {
  // The full default budgets run under ctest via proptest_runner; here
  // a fast smoke pass over every registered property.
  for (const auto& property : Registry::instance().properties()) {
    const RunResult result = property->run(/*master_seed=*/42, /*iters=*/50);
    EXPECT_TRUE(result.ok()) << format_failure(result);
  }
}

TEST(Seeds, IterationZeroReplaysTheMasterSeed) {
  EXPECT_EQ(instance_seed(1234u, 0), 1234u);
  EXPECT_EQ(instance_seed(1234u, 1), 1234u + kSeedStride);
  EXPECT_EQ(instance_seed(1234u, 2), 1234u + 2 * kSeedStride);
}

// --- Injected failures must shrink to minimal counterexamples. ---

// Fails whenever the instance has >= 2 users: the shrinker must strip
// it down to exactly 2 (dropping either one makes the check pass).
CheckResult fails_with_two_users(const SlotProblem& problem) {
  return problem.user_count() >= 2
             ? fail("injected: " + std::to_string(problem.user_count()) +
                    " users")
             : pass();
}

TEST(Shrink, SlotProblemReachesTheLocalMinimum) {
  cvr::Rng rng(99);
  SlotProblemGenConfig config;
  config.min_users = 4;  // start well above the minimal size
  const SlotProblem failing = gen_slot_problem(rng, config);
  ASSERT_FALSE(fails_with_two_users(failing).ok);

  const auto fails = [](const SlotProblem& p) {
    return !fails_with_two_users(p).ok;
  };
  const ShrinkOutcome<SlotProblem> outcome = shrink_to_minimal(failing, fails);
  EXPECT_EQ(outcome.minimal.user_count(), 2u);
  EXPECT_GE(outcome.steps, 2u);
  // Local minimality: no single candidate reduction still fails.
  for (const SlotProblem& candidate :
       ShrinkTraits<SlotProblem>::candidates(outcome.minimal)) {
    if (candidate.user_count() < 2) {
      EXPECT_FALSE(fails(candidate));
    }
  }
}

TEST(Shrink, VectorIsolatesTheOffendingElement) {
  const std::vector<double> failing = {1.0, 2.0, 500.0, 3.0, 4.0, 5.0};
  const auto fails = [](const std::vector<double>& v) {
    for (double x : v) {
      if (x > 100.0) return true;
    }
    return false;
  };
  const auto outcome = shrink_to_minimal(failing, fails);
  ASSERT_EQ(outcome.minimal.size(), 1u);
  EXPECT_EQ(outcome.minimal[0], 500.0);
}

TEST(Property, FailureReportsReplayableSeedAndShrunkFixture) {
  Registry fresh;
  fresh.add(make_property("inject.too_many_users", 200,
                          slot_problems(SlotProblemGenConfig{}),
                          fails_with_two_users));
  const PropertyBase* property = fresh.find("inject.too_many_users");
  ASSERT_NE(property, nullptr);

  const RunResult result = property->run(/*master_seed=*/7);
  ASSERT_FALSE(result.ok());
  const Counterexample& ce = *result.counterexample;
  EXPECT_EQ(ce.seed, instance_seed(7, ce.iteration));
  EXPECT_NE(ce.note.find("injected"), std::string::npos);
  // The fixture is the SHRUNK instance: exactly two users left.
  std::size_t pushes = 0;
  for (std::size_t at = ce.fixture.find("problem.push_back");
       at != std::string::npos;
       at = ce.fixture.find("problem.push_back", at + 1)) {
    ++pushes;
  }
  EXPECT_EQ(pushes, 2u);

  // Replay contract: the reported seed as master seed with --iters=1
  // regenerates the failure at iteration 0.
  const RunResult replay = property->run(ce.seed, 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.counterexample->iteration, 0u);
  EXPECT_EQ(replay.counterexample->seed, ce.seed);
}

TEST(Property, RunsAreDeterministic) {
  Registry fresh;
  fresh.add(make_property("inject.big_sample", 500, sample_streams(),
                          [](const SampleStream& s) {
                            for (double x : s.samples) {
                              if (std::abs(x) > 1e8) return fail("big");
                            }
                            return pass();
                          }));
  const PropertyBase* property = fresh.find("inject.big_sample");
  const RunResult a = property->run(11);
  const RunResult b = property->run(11);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(format_failure(a), format_failure(b));  // byte-identical report
}

TEST(Property, ExceptionsCountAsFailuresAndShrink) {
  Registry fresh;
  fresh.add(make_property("inject.throws", 100, sample_streams(),
                          [](const SampleStream& s) -> CheckResult {
                            if (s.samples.size() >= 3) {
                              throw std::runtime_error("boom");
                            }
                            return pass();
                          }));
  const RunResult result = fresh.find("inject.throws")->run(3);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.counterexample->note.find("boom"), std::string::npos);
  // Shrunk to the minimal still-throwing size.
  EXPECT_NE(result.counterexample->fixture.find("samples"),
            std::string::npos);
}

TEST(Property, BoolChecksAreAdapted) {
  Registry fresh;
  fresh.add(make_property("inject.bool", 50, constant(5),
                          [](const int& v) { return v != 5; }));
  const RunResult result = fresh.find("inject.bool")->run(1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.counterexample->note, "check returned false");
}

// --- Corpus format ---

TEST(Corpus, ParsesEntriesSkippingCommentsAndBlanks) {
  const auto entries = parse_corpus(
      "# regression corpus\n"
      "\n"
      "core.dv_scan_heap_identical 12345\n"
      "  proto.roundtrip 678\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].property, "core.dv_scan_heap_identical");
  EXPECT_EQ(entries[0].seed, 12345u);
  EXPECT_EQ(entries[1].property, "proto.roundtrip");
  EXPECT_EQ(entries[1].seed, 678u);
}

TEST(Corpus, RejectsMalformedLines) {
  EXPECT_THROW(parse_corpus("core.roundtrip\n"), std::runtime_error);
  EXPECT_THROW(parse_corpus("core.roundtrip notanumber\n"),
               std::runtime_error);
  EXPECT_THROW(parse_corpus("core.roundtrip 5 trailing\n"),
               std::runtime_error);
}

TEST(Corpus, FormatFailureEmitsACorpusLine) {
  RunResult result;
  result.name = "some.property";
  Counterexample ce;
  ce.seed = 42;
  ce.iteration = 3;
  ce.note = "broke";
  ce.fixture = "int x = 1;\nint y = 2;";
  result.counterexample = ce;
  const std::string report = format_failure(result);
  EXPECT_NE(report.find("FAIL some.property seed=42 iter=3"),
            std::string::npos);
  EXPECT_NE(report.find("--property=some.property --seed=42 --iters=1"),
            std::string::npos);
  EXPECT_NE(report.find("CORPUS some.property 42\n"), std::string::npos);
  // The CORPUS line parses back into the same entry.
  const auto at = report.find("CORPUS ");
  const auto entries = parse_corpus(report.substr(at + 7));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].property, "some.property");
  EXPECT_EQ(entries[0].seed, 42u);
}

// --- Generator sanity ---

TEST(Generators, TieHeavyConfigProducesExactDuplicates) {
  // The scan-vs-heap oracle is only as good as its tie pressure: over a
  // modest sample, byte-identical user pairs must actually occur.
  std::size_t with_duplicates = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    cvr::Rng rng(seed);
    const SlotProblem problem = gen_slot_problem(rng, tie_heavy_config());
    for (std::size_t i = 0; i + 1 < problem.user_count() && i < 64; ++i) {
      for (std::size_t j = i + 1; j < problem.user_count(); ++j) {
        const core::UserSlotContext a = problem.user(i);
        const core::UserSlotContext b = problem.user(j);
        if (a.rate == b.rate && a.delay == b.delay &&
            a.success == b.success) {
          ++with_duplicates;
          j = problem.user_count();
          i = 64;
        }
      }
    }
  }
  EXPECT_GE(with_duplicates, 50u);
}

TEST(Generators, InstancesAreDeterministicInTheSeed) {
  for (std::uint64_t seed : {1u, 77u, 901u}) {
    cvr::Rng a(seed), b(seed);
    const SlotProblem pa = gen_slot_problem(a, tie_heavy_config());
    const SlotProblem pb = gen_slot_problem(b, tie_heavy_config());
    ASSERT_EQ(pa.user_count(), pb.user_count());
    EXPECT_EQ(pa.server_bandwidth, pb.server_bandwidth);
    for (std::size_t n = 0; n < pa.user_count(); ++n) {
      EXPECT_EQ(pa.user(n).rate, pb.user(n).rate);
      EXPECT_EQ(pa.user(n).delay, pb.user(n).delay);
    }
  }
}

TEST(Generators, MutationNoopDetectionIsSound) {
  cvr::Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const MutationCase mutation = gen_mutation_case(rng);
    const bool identical =
        mutation.mutated() == encode_wire_message(mutation.message);
    EXPECT_EQ(mutation.is_noop(), identical);
  }
}

}  // namespace
}  // namespace cvr::proptest
