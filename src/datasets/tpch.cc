#include "datasets/tpch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/random.h"

namespace ssum {

namespace {

constexpr size_t kRegion = 0, kNation = 1, kSupplier = 2, kPart = 3,
                 kPartsupp = 4, kCustomer = 5, kOrders = 6, kLineitem = 7;

Catalog BuildCatalog() {
  Catalog cat;
  auto add = [&](TableDef def) {
    Status s = cat.AddTable(std::move(def));
    SSUM_CHECK(s.ok(), s.ToString());
  };
  using CT = ColumnType;
  add({"region",
       {{"r_regionkey", CT::kInt, true},
        {"r_name", CT::kString, false},
        {"r_comment", CT::kString, false}},
       {}});
  add({"nation",
       {{"n_nationkey", CT::kInt, true},
        {"n_name", CT::kString, false},
        {"n_regionkey", CT::kInt, false},
        {"n_comment", CT::kString, false}},
       {{"n_regionkey", "region", "r_regionkey"}}});
  add({"supplier",
       {{"s_suppkey", CT::kInt, true},
        {"s_name", CT::kString, false},
        {"s_address", CT::kString, false},
        {"s_nationkey", CT::kInt, false},
        {"s_phone", CT::kString, false},
        {"s_acctbal", CT::kFloat, false},
        {"s_comment", CT::kString, false}},
       {{"s_nationkey", "nation", "n_nationkey"}}});
  add({"part",
       {{"p_partkey", CT::kInt, true},
        {"p_name", CT::kString, false},
        {"p_mfgr", CT::kString, false},
        {"p_brand", CT::kString, false},
        {"p_type", CT::kString, false},
        {"p_size", CT::kInt, false},
        {"p_container", CT::kString, false},
        {"p_retailprice", CT::kFloat, false},
        {"p_comment", CT::kString, false}},
       {}});
  add({"partsupp",
       {{"ps_partkey", CT::kInt, false},
        {"ps_suppkey", CT::kInt, false},
        {"ps_availqty", CT::kInt, false},
        {"ps_supplycost", CT::kFloat, false},
        {"ps_comment", CT::kString, false}},
       {{"ps_partkey", "part", "p_partkey"},
        {"ps_suppkey", "supplier", "s_suppkey"}}});
  add({"customer",
       {{"c_custkey", CT::kInt, true},
        {"c_name", CT::kString, false},
        {"c_address", CT::kString, false},
        {"c_nationkey", CT::kInt, false},
        {"c_phone", CT::kString, false},
        {"c_acctbal", CT::kFloat, false},
        {"c_mktsegment", CT::kString, false},
        {"c_comment", CT::kString, false}},
       {{"c_nationkey", "nation", "n_nationkey"}}});
  add({"orders",
       {{"o_orderkey", CT::kInt, true},
        {"o_custkey", CT::kInt, false},
        {"o_orderstatus", CT::kString, false},
        {"o_totalprice", CT::kFloat, false},
        {"o_orderdate", CT::kDate, false},
        {"o_orderpriority", CT::kString, false},
        {"o_clerk", CT::kString, false},
        {"o_shippriority", CT::kInt, false},
        {"o_comment", CT::kString, false}},
       {{"o_custkey", "customer", "c_custkey"}}});
  add({"lineitem",
       {{"l_orderkey", CT::kInt, false},
        {"l_partkey", CT::kInt, false},
        {"l_suppkey", CT::kInt, false},
        {"l_linenumber", CT::kInt, false},
        {"l_quantity", CT::kFloat, false},
        {"l_extendedprice", CT::kFloat, false},
        {"l_discount", CT::kFloat, false},
        {"l_tax", CT::kFloat, false},
        {"l_returnflag", CT::kString, false},
        {"l_linestatus", CT::kString, false},
        {"l_shipdate", CT::kDate, false},
        {"l_commitdate", CT::kDate, false},
        {"l_receiptdate", CT::kDate, false},
        {"l_shipinstruct", CT::kString, false},
        {"l_shipmode", CT::kString, false},
        {"l_comment", CT::kString, false}},
       {{"l_orderkey", "orders", "o_orderkey"},
        {"l_partkey", "part", "p_partkey"},
        {"l_suppkey", "supplier", "s_suppkey"}}});
  return cat;
}

}  // namespace

TpchDataset::TpchDataset(TpchParams params)
    : params_(params), catalog_(BuildCatalog()) {
  auto m = BuildRelationalSchema(catalog_, "tpch");
  SSUM_CHECK(m.ok(), m.status().ToString());
  mapping_ = std::move(*m);
}

Result<TpchDataset> TpchDataset::Make(TpchParams params) {
  if (!std::isfinite(params.sf) || params.sf <= 0.0 || params.sf > 1000.0) {
    return Status::InvalidArgument("TPC-H scale factor must be in (0, 1000]");
  }
  if (!std::isfinite(params.lineitems_per_order) ||
      params.lineitems_per_order < 1.0 || params.lineitems_per_order > 7.0) {
    return Status::InvalidArgument(
        "TPC-H lineitems_per_order must be in [1, 7] (spec: uniform 1..7)");
  }
  return TpchDataset(params);
}

Result<uint64_t> TpchDataset::RowsOf(size_t t) const {
  if (t >= catalog_.tables().size()) {
    return Status::InvalidArgument("RowsOf: table index " + std::to_string(t) +
                                   " out of range (TPC-H has " +
                                   std::to_string(catalog_.tables().size()) +
                                   " tables)");
  }
  return RowsOfUnchecked(t);
}

uint64_t TpchDataset::RowsOfUnchecked(size_t t) const {
  const double sf = params_.sf;
  auto scale = [&](double base) {
    return static_cast<uint64_t>(base * sf + 0.5);
  };
  switch (t) {
    case kRegion:
      return 5;
    case kNation:
      return 25;
    case kSupplier:
      return scale(10000);
    case kPart:
      return scale(200000);
    case kPartsupp:
      return scale(800000);
    case kCustomer:
      return scale(150000);
    case kOrders:
      return scale(1500000);
    case kLineitem:
      // Derived: orders * lineitems_per_order (spec ~6M at sf 1 with
      // 1..7 per order; the paper's 12,550k data elements at sf 0.1
      // correspond to ~600k lineitems).
      return static_cast<uint64_t>(
          std::llround(static_cast<double>(RowsOfUnchecked(kOrders)) *
                       params_.lineitems_per_order));
    default:
      SSUM_CHECK(false, "RowsOfUnchecked: bad table index (internal)");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Streaming generator
// ---------------------------------------------------------------------------

namespace {

// Row events carry structure and reference counts only, so every row of a
// table emits the identical event sequence; the per-order lineitem fanout
// lives in the materializing generator, not here. That makes the stream
// trivially splittable: unit u is the u-th row of the tables concatenated
// in catalog order, and no generator state crosses unit boundaries.
class TpchStream : public InstanceStream, public ShardedInstanceSource {
 public:
  explicit TpchStream(const TpchDataset* ds) : ds_(ds) {}

  const SchemaGraph& schema() const override { return ds_->schema(); }

  uint64_t NumUnits() const override {
    uint64_t rows = 0;
    for (size_t t = 0; t < ds_->catalog().tables().size(); ++t) {
      rows += *ds_->RowsOf(t);
    }
    return rows;
  }

 private:
  Status Emit(EventWriter* out) const override {
    out->Enter(schema().root());
    for (size_t t = 0; t < ds_->catalog().tables().size(); ++t) {
      const uint64_t rows = *ds_->RowsOf(t);
      for (uint64_t r = 0; r < rows; ++r) EmitRow(out, t);
    }
    out->Leave(schema().root());
    return Status::OK();
  }

  Status EmitSkeleton(EventWriter* out) const override {
    out->Leaf(schema().root());
    return Status::OK();
  }

  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override {
    uint64_t base = 0;
    for (size_t t = 0; t < ds_->catalog().tables().size() && begin < end; ++t) {
      const uint64_t table_end = base + *ds_->RowsOf(t);
      for (; begin < end && begin < table_end; ++begin) EmitRow(out, t);
      base = table_end;
    }
    return Status::OK();
  }

  void EmitRow(EventWriter* out, size_t t) const {
    const RelationalSchemaMapping& m = ds_->mapping();
    const TableDef& def = ds_->catalog().tables()[t];
    out->Enter(m.table_elements[t]);
    for (size_t f = 0; f < def.foreign_keys.size(); ++f) {
      out->Reference(m.fk_links[t][f]);
    }
    for (ElementId col : m.column_elements[t]) out->Leaf(col);
    out->Leave(m.table_elements[t]);
  }

  const TpchDataset* ds_;
};

}  // namespace

std::unique_ptr<InstanceStream> TpchDataset::MakeStream() const {
  return std::make_unique<TpchStream>(this);
}

std::unique_ptr<ShardedInstanceSource> TpchDataset::MakeShardedSource() const {
  return std::make_unique<TpchStream>(this);
}

// ---------------------------------------------------------------------------
// Materializing generator (tiny scale factors)
// ---------------------------------------------------------------------------

Result<Database> TpchDataset::GenerateDatabase() const {
  if (RowsOfUnchecked(kLineitem) > 2000000) {
    return Status::InvalidArgument(
        "GenerateDatabase is intended for small scale factors; use "
        "MakeStream for annotation at benchmark scale");
  }
  Database db(&catalog_);
  Rng rng(params_.seed);
  auto pad = [](uint64_t v, int width) {
    std::string s = std::to_string(v);
    while (static_cast<int>(s.size()) < width) s.insert(s.begin(), '0');
    return s;
  };
  const char* kNations[] = {"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA",
                            "EGYPT"};
  const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                            "MIDDLE EAST"};
  const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                             "HOUSEHOLD", "MACHINERY"};
  const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                               "4-NOT SPECIFIED", "5-LOW"};
  const char* kModes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                          "TRUCK"};

  auto date = [&](int base_year) {
    return std::to_string(base_year + rng.NextBounded(7)) + "-" +
           pad(1 + rng.NextBounded(12), 2) + "-" +
           pad(1 + rng.NextBounded(28), 2);
  };
  auto money = [&](double lo, double hi) {
    double v = lo + rng.NextDouble() * (hi - lo);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };

  Table* region = *db.FindTable("region");
  for (uint64_t r = 0; r < RowsOfUnchecked(kRegion); ++r) {
    SSUM_RETURN_NOT_OK(region->AppendRow(
        {std::to_string(r), kRegions[r % 5], "benchmark region"}));
  }
  Table* nation = *db.FindTable("nation");
  for (uint64_t n = 0; n < RowsOfUnchecked(kNation); ++n) {
    SSUM_RETURN_NOT_OK(nation->AppendRow(
        {std::to_string(n), n < 5 ? kNations[n] : "NATION" + pad(n, 2),
         std::to_string(n % RowsOfUnchecked(kRegion)), "benchmark nation"}));
  }
  Table* supplier = *db.FindTable("supplier");
  for (uint64_t s = 0; s < RowsOfUnchecked(kSupplier); ++s) {
    SSUM_RETURN_NOT_OK(supplier->AppendRow(
        {std::to_string(s), "Supplier#" + pad(s, 9), "addr-" + pad(s, 6),
         std::to_string(rng.NextBounded(RowsOfUnchecked(kNation))),
         "27-" + pad(rng.NextBounded(10000000), 7), money(-999, 9999),
         "reliable supplier"}));
  }
  Table* part = *db.FindTable("part");
  for (uint64_t p = 0; p < RowsOfUnchecked(kPart); ++p) {
    SSUM_RETURN_NOT_OK(part->AppendRow(
        {std::to_string(p), "part name " + pad(p, 6),
         "Manufacturer#" + std::to_string(1 + rng.NextBounded(5)),
         "Brand#" + std::to_string(11 + rng.NextBounded(45)),
         "STANDARD POLISHED TIN", std::to_string(1 + rng.NextBounded(50)),
         "JUMBO PKG", money(900, 2000), "part comment"}));
  }
  Table* partsupp = *db.FindTable("partsupp");
  for (uint64_t p = 0; p < RowsOfUnchecked(kPart); ++p) {
    for (int k = 0; k < 4; ++k) {
      if (partsupp->num_rows() >= RowsOfUnchecked(kPartsupp)) break;
      SSUM_RETURN_NOT_OK(partsupp->AppendRow(
          {std::to_string(p),
           std::to_string(rng.NextBounded(RowsOfUnchecked(kSupplier))),
           std::to_string(1 + rng.NextBounded(9999)), money(1, 1000),
           "partsupp comment"}));
    }
  }
  Table* customer = *db.FindTable("customer");
  for (uint64_t c = 0; c < RowsOfUnchecked(kCustomer); ++c) {
    SSUM_RETURN_NOT_OK(customer->AppendRow(
        {std::to_string(c), "Customer#" + pad(c, 9), "addr-" + pad(c, 6),
         std::to_string(rng.NextBounded(RowsOfUnchecked(kNation))),
         "13-" + pad(rng.NextBounded(10000000), 7), money(-999, 9999),
         kSegments[rng.NextBounded(5)], "customer comment"}));
  }
  Table* orders = *db.FindTable("orders");
  Table* lineitem = *db.FindTable("lineitem");
  uint64_t lineitems_left = RowsOfUnchecked(kLineitem);
  for (uint64_t o = 0; o < RowsOfUnchecked(kOrders); ++o) {
    SSUM_RETURN_NOT_OK(orders->AppendRow(
        {std::to_string(o), std::to_string(rng.NextBounded(RowsOfUnchecked(kCustomer))),
         rng.NextBool(0.5) ? "O" : "F", money(800, 500000), date(1992),
         kPriorities[rng.NextBounded(5)], "Clerk#" + pad(rng.NextBounded(1000), 9),
         "0", "order comment"}));
    uint64_t per = o + 1 == RowsOfUnchecked(kOrders)
                       ? lineitems_left
                       : std::min<uint64_t>(lineitems_left,
                                            1 + rng.NextBounded(7));
    for (uint64_t l = 0; l < per; ++l) {
      SSUM_RETURN_NOT_OK(lineitem->AppendRow(
          {std::to_string(o), std::to_string(rng.NextBounded(RowsOfUnchecked(kPart))),
           std::to_string(rng.NextBounded(RowsOfUnchecked(kSupplier))),
           std::to_string(l + 1), std::to_string(1 + rng.NextBounded(50)),
           money(900, 100000), "0.0" + std::to_string(rng.NextBounded(9)),
           "0.0" + std::to_string(rng.NextBounded(8)),
           rng.NextBool(0.5) ? "N" : "R", rng.NextBool(0.5) ? "O" : "F",
           date(1992), date(1992), date(1992), "DELIVER IN PERSON",
           kModes[rng.NextBounded(7)], "lineitem comment"}));
    }
    lineitems_left -= per;
  }
  return db;
}

}  // namespace ssum
