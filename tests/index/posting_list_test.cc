#include "index/posting_list.h"

#include <algorithm>
#include <random>

#include "gtest/gtest.h"

namespace gks {
namespace {

DeweyId Id(std::initializer_list<uint32_t> components) {
  return DeweyId(std::vector<uint32_t>(components));
}

TEST(DeweySpanTest, CompareMatchesDeweyId) {
  DeweyId a = Id({0, 1});
  DeweyId b = Id({0, 1, 2});
  EXPECT_EQ(DeweySpan::Of(a).Compare(DeweySpan::Of(b)) < 0,
            a.Compare(b) < 0);
  EXPECT_EQ(DeweySpan::Of(a).Compare(DeweySpan::Of(a)), 0);
}

TEST(DeweySpanTest, PrefixAndSubtreeComparison) {
  DeweyId root = Id({0, 1});
  DeweyId inside = Id({0, 1, 9});
  DeweyId descendant = Id({0, 1, 5});
  DeweyId sibling = Id({0, 2});
  DeweyId before = Id({0, 0, 7});
  DeweyId ancestor = Id({0});
  DeweySpan root_span = DeweySpan::Of(root);

  EXPECT_TRUE(root_span.IsPrefixOf(DeweySpan::Of(descendant)));
  EXPECT_FALSE(root_span.IsPrefixOf(DeweySpan::Of(sibling)));

  // Inside / before / after the subtree of {0,1}.
  EXPECT_EQ(DeweySpan::Of(inside).CompareToSubtree(root_span), 0);
  EXPECT_EQ(root_span.CompareToSubtree(root_span), 0);
  EXPECT_LT(DeweySpan::Of(before).CompareToSubtree(root_span), 0);
  EXPECT_LT(DeweySpan::Of(ancestor).CompareToSubtree(root_span), 0)
      << "strict ancestors precede the subtree";
  EXPECT_GT(DeweySpan::Of(sibling).CompareToSubtree(root_span), 0);
}

TEST(PackedIdsTest, AddAndRetrieve) {
  PackedIds ids;
  ids.Add(Id({3, 0, 1}));
  ids.Add(Id({3}));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.IdAt(0), Id({3, 0, 1}));
  EXPECT_EQ(ids.IdAt(1), Id({3}));
}

TEST(PackedIdsTest, SortPermutationAndApply) {
  PackedIds ids;
  ids.Add(Id({0, 2}));
  ids.Add(Id({0, 1, 5}));
  ids.Add(Id({0, 1}));
  ids.ApplyPermutation(ids.SortPermutation());
  EXPECT_EQ(ids.IdAt(0), Id({0, 1}));
  EXPECT_EQ(ids.IdAt(1), Id({0, 1, 5}));
  EXPECT_EQ(ids.IdAt(2), Id({0, 2}));
}

TEST(PackedIdsTest, SubtreeRangeOnSortedData) {
  PackedIds ids;
  for (auto init : {Id({0, 0}), Id({0, 1}), Id({0, 1, 0}), Id({0, 1, 3, 2}),
                    Id({0, 2}), Id({1, 0})}) {
    ids.Add(init);
  }
  DeweyId prefix_id = Id({0, 1});
  DeweySpan prefix = DeweySpan::Of(prefix_id);
  EXPECT_EQ(ids.SubtreeBegin(prefix), 1u);
  EXPECT_EQ(ids.SubtreeEnd(prefix), 4u);

  DeweyId doc_id = Id({0});
  DeweySpan whole_doc = DeweySpan::Of(doc_id);
  EXPECT_EQ(ids.SubtreeBegin(whole_doc), 0u);
  EXPECT_EQ(ids.SubtreeEnd(whole_doc), 5u);

  DeweyId absent_id = Id({0, 1, 7});
  DeweySpan absent = DeweySpan::Of(absent_id);
  EXPECT_EQ(ids.SubtreeBegin(absent), ids.SubtreeEnd(absent));
}

TEST(PackedIdsTest, EncodeDecodeRoundTrip) {
  PackedIds ids;
  ids.Add(Id({0, 1, 2}));
  ids.Add(Id({4}));
  std::string buf;
  ids.EncodeTo(&buf);
  std::string_view view = buf;
  PackedIds decoded;
  ASSERT_TRUE(PackedIds::DecodeFrom(&view, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded.IdAt(0), Id({0, 1, 2}));
  EXPECT_EQ(decoded.IdAt(1), Id({4}));
}

TEST(PostingListTest, FinalizeSortsAndDedups) {
  PostingList list;
  list.Add(Id({0, 2}));
  list.Add(Id({0, 1}));
  list.Add(Id({0, 2}));
  list.Add(Id({0, 1, 0}));
  list.Finalize();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.IdAt(0), Id({0, 1}));
  EXPECT_EQ(list.IdAt(1), Id({0, 1, 0}));
  EXPECT_EQ(list.IdAt(2), Id({0, 2}));
  list.Finalize();  // idempotent
  EXPECT_EQ(list.size(), 3u);
}

TEST(PostingListTest, ContainsInSubtree) {
  PostingList list;
  list.Add(Id({0, 1, 4}));
  list.Finalize();
  DeweyId yes = Id({0, 1});
  DeweyId no = Id({0, 2});
  EXPECT_TRUE(list.ContainsInSubtree(DeweySpan::Of(yes)));
  EXPECT_FALSE(list.ContainsInSubtree(DeweySpan::Of(no)));
}

// Property: subtree ranges computed by binary search agree with a linear
// scan for random id sets.
TEST(PackedIdsProperty, SubtreeRangeAgreesWithLinearScan) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<DeweyId> raw;
    for (int i = 0; i < 80; ++i) {
      std::vector<uint32_t> components{0};
      uint32_t depth = 1 + rng() % 4;
      for (uint32_t d = 0; d < depth; ++d) components.push_back(rng() % 3);
      raw.push_back(DeweyId(components));
    }
    std::sort(raw.begin(), raw.end());
    PackedIds ids;
    for (const DeweyId& id : raw) ids.Add(id);

    std::vector<uint32_t> probe_components{0};
    for (uint32_t d = 0, n = rng() % 3; d < n; ++d) {
      probe_components.push_back(rng() % 3);
    }
    DeweyId probe(probe_components);
    size_t begin = ids.SubtreeBegin(DeweySpan::Of(probe));
    size_t end = ids.SubtreeEnd(DeweySpan::Of(probe));
    for (size_t i = 0; i < raw.size(); ++i) {
      bool inside = probe.IsSelfOrAncestorOf(raw[i]);
      EXPECT_EQ(inside, i >= begin && i < end)
          << "trial " << trial << " probe " << probe.ToString() << " id "
          << raw[i].ToString();
    }
  }
}

// Property: LowerBound / UpperBound agree with std::lower_bound /
// std::upper_bound over the same ids, duplicates and absent ids included.
TEST(PackedIdsProperty, BoundsAgreeWithStdBounds) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<DeweyId> raw;
    for (int i = 0; i < 60; ++i) {
      std::vector<uint32_t> components{0};
      for (uint32_t d = 0, n = rng() % 4; d < n; ++d) {
        components.push_back(rng() % 3);
      }
      raw.push_back(DeweyId(components));
    }
    std::sort(raw.begin(), raw.end());
    PackedIds ids;
    for (const DeweyId& id : raw) ids.Add(id);

    for (int probe_index = 0; probe_index < 20; ++probe_index) {
      std::vector<uint32_t> components{static_cast<uint32_t>(rng() % 2)};
      for (uint32_t d = 0, n = rng() % 4; d < n; ++d) {
        components.push_back(rng() % 3);
      }
      const DeweyId probe(components);
      const DeweySpan span = DeweySpan::Of(probe);
      EXPECT_EQ(ids.LowerBound(span),
                static_cast<size_t>(
                    std::lower_bound(raw.begin(), raw.end(), probe) -
                    raw.begin()))
          << probe.ToString();
      EXPECT_EQ(ids.UpperBound(span),
                static_cast<size_t>(
                    std::upper_bound(raw.begin(), raw.end(), probe) -
                    raw.begin()))
          << probe.ToString();
    }
  }
}

}  // namespace
}  // namespace gks
