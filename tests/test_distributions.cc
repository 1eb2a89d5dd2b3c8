// Statistical checks on the dataset generators: the distributions that
// drive every paper experiment must track their configured parameters.

#include <gtest/gtest.h>

#include "datasets/mimi.h"
#include "datasets/tpch.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

double Rc(const SchemaGraph& g, const Annotations& ann, const char* from_path,
          const char* to_path) {
  ElementId from = *g.FindPath(from_path);
  ElementId to = *g.FindPath(to_path);
  for (const Neighbor& nbr : g.neighbors(from)) {
    if (nbr.other == to) return ann.RelativeCardinality(g, from, nbr);
  }
  ADD_FAILURE() << "no link " << from_path << " -> " << to_path;
  return -1;
}

TEST(XMarkDistributionTest, FanoutsTrackParameters) {
  XMarkParams p;
  p.sf = 0.05;
  XMarkDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const SchemaGraph& g = ds.schema();
  // Structural fanouts (paper Section 3.1's RC examples).
  EXPECT_NEAR(Rc(g, ann, "site/open_auctions/open_auction",
                 "site/open_auctions/open_auction/bidder"),
              p.bidders_mean, 0.4);
  EXPECT_NEAR(Rc(g, ann, "site/open_auctions/open_auction/bidder",
                 "site/open_auctions/open_auction"),
              1.0, 1e-9);
  EXPECT_NEAR(Rc(g, ann, "site/people/person", "site/people/person/address"),
              p.prob_address, 0.05);
  // Value-link RCs: every bidder references exactly one person.
  ElementId bidder = *g.FindPath("site/open_auctions/open_auction/bidder");
  ElementId person = *g.FindPath("site/people/person");
  for (const Neighbor& nbr : g.neighbors(bidder)) {
    if (!nbr.is_structural && nbr.other == person) {
      EXPECT_NEAR(ann.RelativeCardinality(g, bidder, nbr), 1.0, 1e-9);
    }
  }
}

TEST(XMarkDistributionTest, RegionSplitMatchesConfiguration) {
  XMarkParams p;
  p.sf = 0.05;
  XMarkDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const auto& names = XMarkDataset::RegionNames();
  for (size_t r = 0; r < names.size(); ++r) {
    ElementId item = *ds.schema().FindPath(std::string("site/regions/") +
                                           names[r] + "/item");
    double expected = p.items_per_region[r] * p.sf;
    EXPECT_NEAR(static_cast<double>(ann.card(item)), expected,
                expected * 0.02 + 2)
        << names[r];
  }
}

TEST(XMarkDistributionTest, EntityCountsScaleWithSf) {
  XMarkParams p;
  p.sf = 0.05;
  XMarkDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const SchemaGraph& g = ds.schema();
  EXPECT_EQ(ann.card(*g.FindPath("site/people/person")),
            static_cast<uint64_t>(p.persons * p.sf + 0.5));
  EXPECT_EQ(ann.card(*g.FindPath("site/open_auctions/open_auction")),
            static_cast<uint64_t>(p.open_auctions * p.sf + 0.5));
  EXPECT_EQ(ann.card(*g.FindPath("site/categories/category")),
            static_cast<uint64_t>(p.categories * p.sf + 0.5));
}

TEST(TpchDistributionTest, LineitemsPerOrder) {
  TpchParams p;
  p.sf = 0.01;
  TpchDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const SchemaGraph& g = ds.schema();
  double per_order =
      static_cast<double>(ann.card(*g.FindPath("tpch/lineitem"))) /
      static_cast<double>(ann.card(*g.FindPath("tpch/orders")));
  EXPECT_NEAR(per_order, p.lineitems_per_order, 0.05);
}

TEST(TpchDistributionTest, DataElementsMatchPaperScale) {
  // Table 1: ~12.55M data elements at sf 0.1. Verify the per-sf density at
  // a cheaper scale (linearity is exercised by the generator structure).
  TpchParams p;
  p.sf = 0.01;
  TpchDataset ds(p);
  CountingSink counter;
  ASSERT_TRUE(ds.MakeStream()->Accept(&counter).ok());
  // 1/10 of the paper's scale -> ~1.25M nodes.
  EXPECT_NEAR(static_cast<double>(counter.nodes()), 1.25e6, 0.08e6);
}

TEST(TpchDistributionTest, EveryRowEmitsItsForeignKeys) {
  TpchParams p;
  p.sf = 0.002;
  TpchDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  for (size_t t = 0; t < ds.catalog().tables().size(); ++t) {
    const TableDef& def = ds.catalog().tables()[t];
    for (size_t f = 0; f < def.foreign_keys.size(); ++f) {
      EXPECT_EQ(ann.value_count(ds.mapping().fk_links[t][f]),
                ann.card(ds.mapping().table_elements[t]))
          << def.name << "." << def.foreign_keys[f].column;
    }
  }
}

TEST(MimiDistributionTest, VersionGrowthIsMonotone) {
  uint64_t previous = 0;
  for (MimiVersion v : {MimiVersion::kApr2004, MimiVersion::kJan2005,
                        MimiVersion::kJan2006}) {
    MimiParams p;
    p.version = v;
    p.scale = 0.01;
    MimiDataset ds(p);
    CountingSink counter;
    ASSERT_TRUE(ds.MakeStream()->Accept(&counter).ok());
    EXPECT_GT(counter.nodes(), previous) << MimiVersionName(v);
    previous = counter.nodes();
  }
}

TEST(MimiDistributionTest, SparseSubtreesAreSparse) {
  MimiParams p;
  p.scale = 0.05;
  MimiDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const SchemaGraph& g = ds.schema();
  uint64_t molecules = ann.card(*g.FindPath("mimi/molecules/molecule"));
  uint64_t structures =
      ann.card(*g.FindPath("mimi/molecules/molecule/structure"));
  uint64_t interactions = ann.card(*g.FindPath("mimi/interactions/interaction"));
  uint64_t kinetics =
      ann.card(*g.FindPath("mimi/interactions/interaction/kinetics"));
  EXPECT_LT(structures, molecules / 10);
  EXPECT_GT(structures, 0u);
  EXPECT_LT(kinetics, interactions / 10);
  EXPECT_GT(kinetics, 0u);
}

TEST(MimiDistributionTest, CentralEntitiesCarryTheMass) {
  MimiParams p;
  p.scale = 0.02;
  MimiDataset ds(p);
  Annotations ann = *AnnotateSchema(*ds.MakeStream());
  const SchemaGraph& g = ds.schema();
  ElementId molecules = *g.FindPath("mimi/molecules");
  ElementId interactions = *g.FindPath("mimi/interactions");
  double central = 0;
  for (ElementId e = 0; e < g.size(); ++e) {
    if (g.IsStructuralAncestor(molecules, e) ||
        g.IsStructuralAncestor(interactions, e)) {
      central += static_cast<double>(ann.card(e));
    }
  }
  EXPECT_GT(central / ann.TotalCard(), 0.7);
}

}  // namespace
}  // namespace ssum
