#include "dsps/grouping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hpp"

namespace repro::dsps {
namespace {

Tuple key_tuple(const std::string& key) {
  Tuple t;
  t.values = {key};
  return t;
}

TEST(ShuffleGrouping, RoundRobinCoversAllTasks) {
  ShuffleGrouping g(4, 1);
  std::vector<int> counts(4, 0);
  std::vector<std::size_t> out;
  for (int i = 0; i < 400; ++i) {
    g.select(key_tuple("x"), out);
    ASSERT_EQ(out.size(), 1u);
    ++counts[out[0]];
  }
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(FieldsGrouping, SameKeySameTask) {
  FieldsGrouping g(8, {0});
  std::vector<std::size_t> a, b;
  g.select(key_tuple("alpha"), a);
  g.select(key_tuple("alpha"), b);
  EXPECT_EQ(a, b);
}

TEST(FieldsGrouping, KeysSpreadAcrossTasks) {
  FieldsGrouping g(4, {0});
  std::map<std::size_t, int> hits;
  std::vector<std::size_t> out;
  for (int i = 0; i < 200; ++i) {
    g.select(key_tuple("key" + std::to_string(i)), out);
    ++hits[out[0]];
  }
  EXPECT_EQ(hits.size(), 4u);
}

TEST(AllGrouping, ReplicatesToEveryTask) {
  AllGrouping g(3);
  std::vector<std::size_t> out;
  g.select(key_tuple("x"), out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GlobalGrouping, AlwaysTaskZero) {
  GlobalGrouping g;
  std::vector<std::size_t> out;
  for (int i = 0; i < 5; ++i) {
    g.select(key_tuple("x"), out);
    EXPECT_EQ(out, (std::vector<std::size_t>{0}));
  }
}

TEST(LocalOrShuffle, PrefersLocalTasks) {
  LocalOrShuffleGrouping g(6, {2, 4}, 1);
  std::vector<std::size_t> out;
  std::map<std::size_t, int> hits;
  for (int i = 0; i < 100; ++i) {
    g.select(key_tuple("x"), out);
    ++hits[out[0]];
  }
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[2], 50);
  EXPECT_EQ(hits[4], 50);
}

TEST(LocalOrShuffle, FallsBackToShuffle) {
  LocalOrShuffleGrouping g(3, {}, 1);
  std::vector<std::size_t> out;
  std::map<std::size_t, int> hits;
  for (int i = 0; i < 300; ++i) {
    g.select(key_tuple("x"), out);
    ++hits[out[0]];
  }
  EXPECT_EQ(hits.size(), 3u);
}

TEST(DynamicRatio, NormalizesWeights) {
  DynamicRatio r(4);
  r.set_ratios({2.0, 2.0, 4.0, 0.0});
  EXPECT_DOUBLE_EQ(r.weights()[0], 0.25);
  EXPECT_DOUBLE_EQ(r.weights()[2], 0.5);
  EXPECT_DOUBLE_EQ(r.weights()[3], 0.0);
}

TEST(DynamicRatio, RejectsBadInputs) {
  DynamicRatio r(3);
  EXPECT_THROW(r.set_ratios({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(r.set_ratios({1.0, -0.1, 0.5}), std::invalid_argument);
  EXPECT_THROW(r.set_ratios({0.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(DynamicRatio, VersionBumpsOnUpdate) {
  DynamicRatio r(2);
  std::uint64_t v0 = r.version();
  r.set_ratios({1.0, 3.0});
  EXPECT_GT(r.version(), v0);
}

TEST(DynamicGrouping, ExactSplitOverWindow) {
  auto ratio = std::make_shared<DynamicRatio>(4);
  ratio->set_ratios({0.4, 0.3, 0.2, 0.1});
  DynamicGrouping g(ratio);
  std::vector<int> counts(4, 0);
  std::vector<std::size_t> out;
  for (int i = 0; i < 1000; ++i) {
    g.select(key_tuple("x"), out);
    ++counts[out[0]];
  }
  EXPECT_EQ(counts[0], 400);
  EXPECT_EQ(counts[1], 300);
  EXPECT_EQ(counts[2], 200);
  EXPECT_EQ(counts[3], 100);
}

TEST(DynamicGrouping, ZeroWeightTaskNeverSelected) {
  auto ratio = std::make_shared<DynamicRatio>(3);
  ratio->set_ratios({0.5, 0.0, 0.5});
  DynamicGrouping g(ratio);
  std::vector<std::size_t> out;
  for (int i = 0; i < 500; ++i) {
    g.select(key_tuple("x"), out);
    EXPECT_NE(out[0], 1u);
  }
}

TEST(DynamicGrouping, PicksUpRatioChangeImmediately) {
  auto ratio = std::make_shared<DynamicRatio>(2);
  DynamicGrouping g(ratio);
  std::vector<std::size_t> out;
  for (int i = 0; i < 10; ++i) g.select(key_tuple("x"), out);
  ratio->set_ratios({0.0, 1.0});
  for (int i = 0; i < 100; ++i) {
    g.select(key_tuple("x"), out);
    EXPECT_EQ(out[0], 1u);
  }
}

TEST(DynamicGrouping, SmoothInterleaving) {
  // SWRR property: with {2/3, 1/3}, no more than 2 consecutive picks of
  // task 0 and never 2 consecutive picks of task 1.
  auto ratio = std::make_shared<DynamicRatio>(2);
  ratio->set_ratios({2.0, 1.0});
  DynamicGrouping g(ratio);
  std::vector<std::size_t> out;
  std::size_t prev = 99, run = 0;
  for (int i = 0; i < 300; ++i) {
    g.select(key_tuple("x"), out);
    run = out[0] == prev ? run + 1 : 1;
    if (out[0] == 0) {
      EXPECT_LE(run, 2u);
    }
    if (out[0] == 1) {
      EXPECT_LE(run, 1u);
    }
    prev = out[0];
  }
}

// Property sweep: SWRR matches arbitrary ratios exactly over their period.
class DynamicGroupingRatios : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(DynamicGroupingRatios, SplitMatchesRatio) {
  std::vector<double> weights = GetParam();
  auto ratio = std::make_shared<DynamicRatio>(weights.size());
  ratio->set_ratios(weights);
  DynamicGrouping g(ratio);
  double sum = 0.0;
  for (double w : weights) sum += w;

  const int n = 10000;
  std::vector<int> counts(weights.size(), 0);
  std::vector<std::size_t> out;
  for (int i = 0; i < n; ++i) {
    g.select(Tuple{}, out);
    ++counts[out[0]];
  }
  for (std::size_t t = 0; t < weights.size(); ++t) {
    double expected = n * weights[t] / sum;
    EXPECT_NEAR(counts[t], expected, weights.size() + 1) << "task " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, DynamicGroupingRatios,
    ::testing::Values(std::vector<double>{1.0, 1.0}, std::vector<double>{0.9, 0.1},
                      std::vector<double>{0.5, 0.3, 0.2}, std::vector<double>{1, 2, 3, 4},
                      std::vector<double>{0.25, 0.25, 0.25, 0.25},
                      std::vector<double>{5, 0, 3, 0, 2},
                      std::vector<double>{0.61, 0.17, 0.13, 0.09}));

TEST(PartialKeyGrouping, SameKeyUsesAtMostTwoTasks) {
  PartialKeyGrouping g(8, {0});
  std::vector<std::size_t> out;
  std::set<std::size_t> targets;
  for (int i = 0; i < 1000; ++i) {
    g.select(key_tuple("hot-key"), out);
    targets.insert(out[0]);
  }
  EXPECT_LE(targets.size(), 2u);
}

TEST(PartialKeyGrouping, HotKeySplitsBetweenItsTwoChoices) {
  PartialKeyGrouping g(8, {0});
  std::vector<std::size_t> out;
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 1000; ++i) {
    g.select(key_tuple("hot-key"), out);
    ++counts[out[0]];
  }
  if (counts.size() == 2) {
    // Two distinct candidates: the two-choices rule balances them evenly.
    auto it = counts.begin();
    int a = it->second;
    int b = (++it)->second;
    EXPECT_NEAR(a, b, 2);
  } else {
    // Both hashes collided on one task: everything lands there.
    EXPECT_EQ(counts.begin()->second, 1000);
  }
}

TEST(PartialKeyGrouping, BalancesSkewBetterThanFields) {
  // Zipfian keys: partial-key's max task load must be no worse than
  // fields grouping's.
  common::Pcg32 rng(9);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    // crude zipf: key j with prob ~ 1/(j+1)
    int j = 0;
    while (j < 20 && rng.bernoulli(0.5)) ++j;
    keys.push_back("key-" + std::to_string(j));
  }
  PartialKeyGrouping pk(4, {0});
  FieldsGrouping fg(4, {0});
  std::vector<std::size_t> out;
  std::vector<int> pk_counts(4, 0), fg_counts(4, 0);
  for (const auto& k : keys) {
    pk.select(key_tuple(k), out);
    ++pk_counts[out[0]];
    fg.select(key_tuple(k), out);
    ++fg_counts[out[0]];
  }
  EXPECT_LE(*std::max_element(pk_counts.begin(), pk_counts.end()),
            *std::max_element(fg_counts.begin(), fg_counts.end()));
}

TEST(PartialKeyGrouping, ZeroTasksThrows) {
  EXPECT_THROW(PartialKeyGrouping(0, {0}), std::invalid_argument);
}

TEST(MakeGroupingState, DispatchesAllKinds) {
  EXPECT_EQ(grouping_kind_name(GroupingKind::kDynamic), std::string("dynamic"));
  auto ratio = std::make_shared<DynamicRatio>(2);
  EXPECT_NE(make_grouping_state(GroupingSpec::shuffle(), 2, {}, 1), nullptr);
  EXPECT_NE(make_grouping_state(GroupingSpec::fields({0}), 2, {}, 1), nullptr);
  EXPECT_NE(make_grouping_state(GroupingSpec::all(), 2, {}, 1), nullptr);
  EXPECT_NE(make_grouping_state(GroupingSpec::global(), 2, {}, 1), nullptr);
  EXPECT_NE(make_grouping_state(GroupingSpec::local_or_shuffle(), 2, {0}, 1), nullptr);
  EXPECT_NE(make_grouping_state(GroupingSpec::dynamic(ratio), 2, {}, 1), nullptr);
}

TEST(MakeGroupingState, DynamicSizeMismatchThrows) {
  auto ratio = std::make_shared<DynamicRatio>(2);
  EXPECT_THROW(make_grouping_state(GroupingSpec::dynamic(ratio), 3, {}, 1),
               std::invalid_argument);
  EXPECT_THROW(make_grouping_state(GroupingSpec::dynamic(nullptr), 2, {}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::dsps
