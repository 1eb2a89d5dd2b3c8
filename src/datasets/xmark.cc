#include "datasets/xmark.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "schema/schema_builder.h"

namespace ssum {

const std::array<const char*, 6>& XMarkDataset::RegionNames() {
  static const std::array<const char*, 6> kNames{
      "africa", "asia", "australia", "europe", "namerica", "samerica"};
  return kNames;
}

namespace {

/// Builds the (text | parlist) description content model with the parlist
/// recursion unfolded once (DESIGN.md: recursion is cut to keep the schema
/// finite, matching the paper's finite element count).
XMarkDataset::DescriptionIds BuildDescription(SchemaBuilder* b,
                                              ElementId parent) {
  XMarkDataset::DescriptionIds d;
  d.description = b->Choice(parent, "description");
  d.text = b->Rcd(d.description, "text");
  d.bold = b->SetSimple(d.text, "bold");
  d.keyword = b->SetSimple(d.text, "keyword");
  d.emph = b->SetSimple(d.text, "emph");
  d.parlist = b->Rcd(d.description, "parlist");
  d.listitem = b->SetRcd(d.parlist, "listitem");
  d.li_text = b->Rcd(d.listitem, "text");
  d.li_bold = b->SetSimple(d.li_text, "bold");
  d.li_keyword = b->SetSimple(d.li_text, "keyword");
  d.li_emph = b->SetSimple(d.li_text, "emph");
  return d;
}

}  // namespace

Result<XMarkDataset> XMarkDataset::Make(XMarkParams params) {
  if (!std::isfinite(params.sf) || params.sf <= 0.0 || params.sf > 1000.0) {
    return Status::InvalidArgument("XMark scale factor must be in (0, 1000]");
  }
  return XMarkDataset(params);
}

XMarkDataset::XMarkDataset(XMarkParams params) : params_(params) {
  SchemaBuilder b("site");

  // --- regions / items -----------------------------------------------------
  regions_ = b.Rcd(b.Root(), "regions");
  for (size_t r = 0; r < 6; ++r) {
    region_[r] = b.Rcd(regions_, RegionNames()[r]);
    ItemIds& it = item_[r];
    it.item = b.SetRcd(region_[r], "item");
    it.id = b.Attr(it.item, "id", AtomicKind::kId);
    it.featured = b.Attr(it.item, "featured");
    it.location = b.Simple(it.item, "location");
    it.quantity = b.Simple(it.item, "quantity", AtomicKind::kInt);
    it.name = b.Simple(it.item, "name");
    it.payment = b.Simple(it.item, "payment");
    XMarkDataset::DescriptionIds d = BuildDescription(&b, it.item);
    it.description = d.description;
    it.text = d.text;
    it.bold = d.bold;
    it.keyword = d.keyword;
    it.emph = d.emph;
    it.parlist = d.parlist;
    it.listitem = d.listitem;
    it.li_text = d.li_text;
    it.li_bold = d.li_bold;
    it.li_keyword = d.li_keyword;
    it.li_emph = d.li_emph;
    it.shipping = b.Simple(it.item, "shipping");
    it.incategory = b.SetRcd(it.item, "incategory");
    it.incategory_category =
        b.Attr(it.incategory, "category", AtomicKind::kIdRef);
    it.mailbox = b.Rcd(it.item, "mailbox");
    it.mail = b.SetRcd(it.mailbox, "mail");
    it.mail_from = b.Simple(it.mail, "from");
    it.mail_to = b.Simple(it.mail, "to");
    it.mail_date = b.Simple(it.mail, "date", AtomicKind::kDate);
    it.mail_text = b.Rcd(it.mail, "text");
    it.mail_bold = b.SetSimple(it.mail_text, "bold");
    it.mail_keyword = b.SetSimple(it.mail_text, "keyword");
    it.mail_emph = b.SetSimple(it.mail_text, "emph");
  }

  // --- categories / catgraph ----------------------------------------------
  categories_ = b.Rcd(b.Root(), "categories");
  category_ = b.SetRcd(categories_, "category");
  category_id_ = b.Attr(category_, "id", AtomicKind::kId);
  category_name_ = b.Simple(category_, "name");
  category_desc_ = BuildDescription(&b, category_);
  catgraph_ = b.Rcd(b.Root(), "catgraph");
  edge_ = b.SetRcd(catgraph_, "edge");
  edge_from_ = b.Attr(edge_, "from", AtomicKind::kIdRef);
  edge_to_ = b.Attr(edge_, "to", AtomicKind::kIdRef);

  // --- people ---------------------------------------------------------------
  people_ = b.Rcd(b.Root(), "people");
  person_ = b.SetRcd(people_, "person");
  person_id_ = b.Attr(person_, "id", AtomicKind::kId);
  person_name_ = b.Simple(person_, "name");
  emailaddress_ = b.Simple(person_, "emailaddress");
  phone_ = b.Simple(person_, "phone");
  address_ = b.Rcd(person_, "address");
  street_ = b.Simple(address_, "street");
  city_ = b.Simple(address_, "city");
  country_ = b.Simple(address_, "country");
  province_ = b.Simple(address_, "province");
  zipcode_ = b.Simple(address_, "zipcode");
  homepage_ = b.Simple(person_, "homepage");
  creditcard_ = b.Simple(person_, "creditcard");
  profile_ = b.Rcd(person_, "profile");
  income_ = b.Attr(profile_, "income", AtomicKind::kFloat);
  interest_ = b.SetRcd(profile_, "interest");
  interest_category_ = b.Attr(interest_, "category", AtomicKind::kIdRef);
  education_ = b.Simple(profile_, "education");
  gender_ = b.Simple(profile_, "gender");
  business_ = b.Simple(profile_, "business");
  age_ = b.Simple(profile_, "age", AtomicKind::kInt);
  watches_ = b.Rcd(person_, "watches");
  watch_ = b.SetRcd(watches_, "watch");
  watch_auction_ = b.Attr(watch_, "open_auction", AtomicKind::kIdRef);

  // --- open auctions ---------------------------------------------------------
  open_auctions_ = b.Rcd(b.Root(), "open_auctions");
  open_auction_ = b.SetRcd(open_auctions_, "open_auction");
  oa_id_ = b.Attr(open_auction_, "id", AtomicKind::kId);
  initial_ = b.Simple(open_auction_, "initial", AtomicKind::kFloat);
  reserve_ = b.Simple(open_auction_, "reserve", AtomicKind::kFloat);
  bidder_ = b.SetRcd(open_auction_, "bidder");
  bidder_person_attr_ = b.Attr(bidder_, "person", AtomicKind::kIdRef);
  bid_date_ = b.Simple(bidder_, "date", AtomicKind::kDate);
  bid_time_ = b.Simple(bidder_, "time");
  increase_ = b.Simple(bidder_, "increase", AtomicKind::kFloat);
  current_ = b.Simple(open_auction_, "current", AtomicKind::kFloat);
  privacy_ = b.Simple(open_auction_, "privacy");
  oa_itemref_ = b.Rcd(open_auction_, "itemref");
  oa_itemref_item_ = b.Attr(oa_itemref_, "item", AtomicKind::kIdRef);
  seller_ = b.Rcd(open_auction_, "seller");
  seller_person_ = b.Attr(seller_, "person", AtomicKind::kIdRef);
  oa_annotation_.annotation = b.Rcd(open_auction_, "annotation");
  oa_annotation_.author = b.Rcd(oa_annotation_.annotation, "author");
  oa_annotation_.author_person =
      b.Attr(oa_annotation_.author, "person", AtomicKind::kIdRef);
  oa_annotation_.desc = BuildDescription(&b, oa_annotation_.annotation);
  oa_annotation_.happiness =
      b.Simple(oa_annotation_.annotation, "happiness", AtomicKind::kInt);
  oa_quantity_ = b.Simple(open_auction_, "quantity", AtomicKind::kInt);
  oa_type_ = b.Simple(open_auction_, "type");
  interval_ = b.Rcd(open_auction_, "interval");
  start_ = b.Simple(interval_, "start", AtomicKind::kDate);
  end_ = b.Simple(interval_, "end", AtomicKind::kDate);

  // --- closed auctions --------------------------------------------------------
  closed_auctions_ = b.Rcd(b.Root(), "closed_auctions");
  closed_auction_ = b.SetRcd(closed_auctions_, "closed_auction");
  ca_seller_ = b.Rcd(closed_auction_, "seller");
  ca_seller_person_ = b.Attr(ca_seller_, "person", AtomicKind::kIdRef);
  ca_buyer_ = b.Rcd(closed_auction_, "buyer");
  ca_buyer_person_ = b.Attr(ca_buyer_, "person", AtomicKind::kIdRef);
  ca_itemref_ = b.Rcd(closed_auction_, "itemref");
  ca_itemref_item_ = b.Attr(ca_itemref_, "item", AtomicKind::kIdRef);
  price_ = b.Simple(closed_auction_, "price", AtomicKind::kFloat);
  ca_date_ = b.Simple(closed_auction_, "date", AtomicKind::kDate);
  ca_quantity_ = b.Simple(closed_auction_, "quantity", AtomicKind::kInt);
  ca_type_ = b.Simple(closed_auction_, "type");
  ca_annotation_.annotation = b.Rcd(closed_auction_, "annotation");
  ca_annotation_.author = b.Rcd(ca_annotation_.annotation, "author");
  ca_annotation_.author_person =
      b.Attr(ca_annotation_.author, "person", AtomicKind::kIdRef);
  ca_annotation_.desc = BuildDescription(&b, ca_annotation_.annotation);
  ca_annotation_.happiness =
      b.Simple(ca_annotation_.annotation, "happiness", AtomicKind::kInt);

  // --- value links (semantic parent-level endpoints, Section 2) -------------
  for (size_t r = 0; r < 6; ++r) {
    l_incategory_[r] = b.Link(item_[r].incategory, category_,
                              item_[r].incategory_category, category_id_);
  }
  l_edge_from_ = b.Link(edge_, category_, edge_from_, category_id_);
  l_edge_to_ = b.Link(edge_, category_, edge_to_, category_id_);
  l_interest_ = b.Link(interest_, category_, interest_category_, category_id_);
  l_watch_ = b.Link(watch_, open_auction_, watch_auction_, oa_id_);
  // The paper treats bidder/@person -> person/@id as bidder -> person.
  l_bidder_person_ = b.Link(bidder_, person_, bidder_person_attr_, person_id_);
  l_seller_person_ = b.Link(seller_, person_, seller_person_, person_id_);
  l_author_oa_ = b.Link(oa_annotation_.author, person_,
                        oa_annotation_.author_person, person_id_);
  l_ca_seller_ = b.Link(ca_seller_, person_, ca_seller_person_, person_id_);
  l_ca_buyer_ = b.Link(ca_buyer_, person_, ca_buyer_person_, person_id_);
  l_author_ca_ = b.Link(ca_annotation_.author, person_,
                        ca_annotation_.author_person, person_id_);
  for (size_t r = 0; r < 6; ++r) {
    l_oa_itemref_[r] =
        b.Link(oa_itemref_, item_[r].item, oa_itemref_item_, item_[r].id);
    l_ca_itemref_[r] =
        b.Link(ca_itemref_, item_[r].item, ca_itemref_item_, item_[r].id);
  }

  graph_ = std::move(b).Build();
}

// ---------------------------------------------------------------------------
// Streaming generator
// ---------------------------------------------------------------------------

class XMarkStream : public InstanceStream, public ShardedInstanceSource {
 public:
  /// Top-level entity sections in serial traversal order. Sections 0..5 are
  /// the six regions' items.
  enum Section {
    kCategories = 6,
    kCatgraph,
    kPeople,
    kOpenAuctions,
    kClosedAuctions,
    kNumSections
  };

  explicit XMarkStream(const XMarkDataset* ds) : ds_(ds) {}

  const SchemaGraph& schema() const override { return ds_->schema(); }

  uint64_t NumUnits() const override {
    uint64_t total = 0;
    for (int s = 0; s < kNumSections; ++s) total += SectionCount(s);
    return total;
  }

 private:
  Status Emit(EventWriter* out) const override {
    return WalkContainers(out, /*with_units=*/true);
  }

  Status EmitSkeleton(EventWriter* out) const override {
    return WalkContainers(out, /*with_units=*/false);
  }

  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override {
    uint64_t base = 0;
    for (int s = 0; s < kNumSections && begin < end; ++s) {
      const uint64_t section_end = base + SectionCount(s);
      for (; begin < end && begin < section_end; ++begin) {
        EmitUnit(out, s, begin - base);
      }
      base = section_end;
    }
    return Status::OK();
  }

  uint64_t SectionCount(int s) const {
    const XMarkParams& p = ds_->params_;
    auto scaled = [&](uint32_t base) {
      return static_cast<uint64_t>(static_cast<double>(base) * p.sf + 0.5);
    };
    if (s < 6) return scaled(p.items_per_region[static_cast<size_t>(s)]);
    switch (s) {
      case kCategories:
        return scaled(p.categories);
      case kCatgraph:
        return scaled(p.catgraph_edges);
      case kPeople:
        return scaled(p.persons);
      case kOpenAuctions:
        return scaled(p.open_auctions);
      case kClosedAuctions:
        return scaled(p.closed_auctions);
    }
    return 0;
  }

  /// One generator per unit, forked from the base seed by (section, index):
  /// identical draws whether the unit is reached serially or from the
  /// middle of a shard.
  Rng UnitRng(int section, uint64_t index) const {
    return Rng(ds_->params_.seed)
        .Fork((static_cast<uint64_t>(section) << 48) | index);
  }

  void EmitUnit(EventWriter* out, int section, uint64_t index) const {
    Rng rng = UnitRng(section, index);
    if (section < 6) {
      EmitItem(out, &rng, static_cast<size_t>(section));
      return;
    }
    switch (section) {
      case kCategories:
        EmitCategory(out, &rng);
        break;
      case kCatgraph:
        EmitEdge(out);
        break;
      case kPeople:
        EmitPerson(out, &rng);
        break;
      case kOpenAuctions:
        EmitOpenAuction(out, &rng);
        break;
      case kClosedAuctions:
        EmitClosedAuction(out, &rng);
        break;
    }
  }

  void EmitSectionUnits(EventWriter* out, int section) const {
    const uint64_t n = SectionCount(section);
    for (uint64_t i = 0; i < n; ++i) EmitUnit(out, section, i);
  }

  Status WalkContainers(EventWriter* out, bool with_units) const {
    auto section = [&](ElementId container, int s) {
      out->Enter(container);
      if (with_units) EmitSectionUnits(out, s);
      out->Leave(container);
    };
    out->Enter(schema().root());
    out->Enter(ds_->regions_);
    for (size_t r = 0; r < 6; ++r) section(ds_->region_[r], static_cast<int>(r));
    out->Leave(ds_->regions_);
    section(ds_->categories_, kCategories);
    section(ds_->catgraph_, kCatgraph);
    section(ds_->people_, kPeople);
    section(ds_->open_auctions_, kOpenAuctions);
    section(ds_->closed_auctions_, kClosedAuctions);
    out->Leave(schema().root());
    return Status::OK();
  }

  void EmitCategory(EventWriter* out, Rng* rng) const {
    out->Enter(ds_->category_);
    out->Leaf(ds_->category_id_);
    out->Leaf(ds_->category_name_);
    EmitDescription(out, rng, ds_->category_desc_);
    out->Leave(ds_->category_);
  }

  void EmitEdge(EventWriter* out) const {
    out->Enter(ds_->edge_);
    out->Reference(ds_->l_edge_from_);
    out->Reference(ds_->l_edge_to_);
    out->Leaf(ds_->edge_from_);
    out->Leaf(ds_->edge_to_);
    out->Leave(ds_->edge_);
  }

  /// Picks the region an item reference points to, weighted by item counts.
  size_t PickRegion(Rng* rng) const {
    const auto& per = ds_->params_.items_per_region;
    double total = 0;
    for (uint32_t c : per) total += c;
    double x = rng->NextDouble() * total;
    for (size_t r = 0; r < 6; ++r) {
      x -= per[r];
      if (x <= 0) return r;
    }
    return 5;
  }

  void EmitText(EventWriter* out, Rng* rng, ElementId text, ElementId bold,
                ElementId keyword, ElementId emph) const {
    const XMarkParams& p = ds_->params_;
    out->Enter(text);
    for (uint64_t i = 0, n = rng->NextPoisson(p.markup_mean); i < n; ++i)
      out->Leaf(bold);
    for (uint64_t i = 0, n = rng->NextPoisson(p.markup_mean); i < n; ++i)
      out->Leaf(keyword);
    for (uint64_t i = 0, n = rng->NextPoisson(p.markup_mean); i < n; ++i)
      out->Leaf(emph);
    out->Leave(text);
  }

  void EmitDescription(EventWriter* out, Rng* rng,
                       const XMarkDataset::DescriptionIds& d) const {
    const XMarkParams& p = ds_->params_;
    out->Enter(d.description);
    if (rng->NextBool(p.prob_parlist)) {
      out->Enter(d.parlist);
      uint64_t items = 1 + rng->NextPoisson(p.listitem_mean - 1.0);
      for (uint64_t i = 0; i < items; ++i) {
        out->Enter(d.listitem);
        EmitText(out, rng, d.li_text, d.li_bold, d.li_keyword, d.li_emph);
        out->Leave(d.listitem);
      }
      out->Leave(d.parlist);
    } else {
      EmitText(out, rng, d.text, d.bold, d.keyword, d.emph);
    }
    out->Leave(d.description);
  }

  void EmitAnnotation(EventWriter* out, Rng* rng,
                      const XMarkDataset::AnnotationIds& a,
                      LinkId author_link) const {
    out->Enter(a.annotation);
    out->Enter(a.author);
    out->Reference(author_link);
    out->Leaf(a.author_person);
    out->Leave(a.author);
    EmitDescription(out, rng, a.desc);
    out->Leaf(a.happiness);
    out->Leave(a.annotation);
  }

  void EmitItem(EventWriter* out, Rng* rng, size_t r) const {
    const XMarkParams& p = ds_->params_;
    const XMarkDataset::ItemIds& it = ds_->item_[r];
    out->Enter(it.item);
    out->Leaf(it.id);
    if (rng->NextBool(0.1)) out->Leaf(it.featured);
    out->Leaf(it.location);
    out->Leaf(it.quantity);
    out->Leaf(it.name);
    out->Leaf(it.payment);
    XMarkDataset::DescriptionIds d{it.description, it.text,    it.bold,
                                   it.keyword,     it.emph,    it.parlist,
                                   it.listitem,    it.li_text, it.li_bold,
                                   it.li_keyword,  it.li_emph};
    EmitDescription(out, rng, d);
    out->Leaf(it.shipping);
    uint64_t cats = 1 + rng->NextPoisson(p.incategory_mean - 1.0);
    for (uint64_t c = 0; c < cats; ++c) {
      out->Enter(it.incategory);
      out->Reference(ds_->l_incategory_[r]);
      out->Leaf(it.incategory_category);
      out->Leave(it.incategory);
    }
    out->Enter(it.mailbox);
    for (uint64_t m = 0, n = rng->NextPoisson(p.mail_mean); m < n; ++m) {
      out->Enter(it.mail);
      out->Leaf(it.mail_from);
      out->Leaf(it.mail_to);
      out->Leaf(it.mail_date);
      EmitText(out, rng, it.mail_text, it.mail_bold, it.mail_keyword,
               it.mail_emph);
      out->Leave(it.mail);
    }
    out->Leave(it.mailbox);
    out->Leave(it.item);
  }

  void EmitPerson(EventWriter* out, Rng* rng) const {
    const XMarkParams& p = ds_->params_;
    out->Enter(ds_->person_);
    out->Leaf(ds_->person_id_);
    out->Leaf(ds_->person_name_);
    out->Leaf(ds_->emailaddress_);
    if (rng->NextBool(p.prob_phone)) out->Leaf(ds_->phone_);
    if (rng->NextBool(p.prob_address)) {
      out->Enter(ds_->address_);
      out->Leaf(ds_->street_);
      out->Leaf(ds_->city_);
      out->Leaf(ds_->country_);
      if (rng->NextBool(0.5)) out->Leaf(ds_->province_);
      out->Leaf(ds_->zipcode_);
      out->Leave(ds_->address_);
    }
    if (rng->NextBool(p.prob_homepage)) out->Leaf(ds_->homepage_);
    if (rng->NextBool(p.prob_creditcard)) out->Leaf(ds_->creditcard_);
    if (rng->NextBool(p.prob_profile)) {
      out->Enter(ds_->profile_);
      out->Leaf(ds_->income_);
      for (uint64_t i = 0, n = rng->NextPoisson(p.interest_mean); i < n; ++i) {
        out->Enter(ds_->interest_);
        out->Reference(ds_->l_interest_);
        out->Leaf(ds_->interest_category_);
        out->Leave(ds_->interest_);
      }
      if (rng->NextBool(p.prob_education)) out->Leaf(ds_->education_);
      if (rng->NextBool(p.prob_gender)) out->Leaf(ds_->gender_);
      out->Leaf(ds_->business_);
      if (rng->NextBool(p.prob_age)) out->Leaf(ds_->age_);
      out->Leave(ds_->profile_);
    }
    out->Enter(ds_->watches_);
    for (uint64_t i = 0, n = rng->NextPoisson(p.watches_mean); i < n; ++i) {
      out->Enter(ds_->watch_);
      out->Reference(ds_->l_watch_);
      out->Leaf(ds_->watch_auction_);
      out->Leave(ds_->watch_);
    }
    out->Leave(ds_->watches_);
    out->Leave(ds_->person_);
  }

  void EmitOpenAuction(EventWriter* out, Rng* rng) const {
    const XMarkParams& p = ds_->params_;
    out->Enter(ds_->open_auction_);
    out->Leaf(ds_->oa_id_);
    out->Leaf(ds_->initial_);
    if (rng->NextBool(p.prob_reserve)) out->Leaf(ds_->reserve_);
    uint64_t bidders = rng->NextPoisson(p.bidders_mean);
    for (uint64_t i = 0; i < bidders; ++i) {
      out->Enter(ds_->bidder_);
      out->Reference(ds_->l_bidder_person_);
      out->Leaf(ds_->bidder_person_attr_);
      out->Leaf(ds_->bid_date_);
      out->Leaf(ds_->bid_time_);
      out->Leaf(ds_->increase_);
      out->Leave(ds_->bidder_);
    }
    out->Leaf(ds_->current_);
    if (rng->NextBool(p.prob_privacy)) out->Leaf(ds_->privacy_);
    out->Enter(ds_->oa_itemref_);
    out->Reference(ds_->l_oa_itemref_[PickRegion(rng)]);
    out->Leaf(ds_->oa_itemref_item_);
    out->Leave(ds_->oa_itemref_);
    out->Enter(ds_->seller_);
    out->Reference(ds_->l_seller_person_);
    out->Leaf(ds_->seller_person_);
    out->Leave(ds_->seller_);
    if (rng->NextBool(p.prob_annotation)) {
      EmitAnnotation(out, rng, ds_->oa_annotation_, ds_->l_author_oa_);
    }
    out->Leaf(ds_->oa_quantity_);
    out->Leaf(ds_->oa_type_);
    out->Enter(ds_->interval_);
    out->Leaf(ds_->start_);
    out->Leaf(ds_->end_);
    out->Leave(ds_->interval_);
    out->Leave(ds_->open_auction_);
  }

  void EmitClosedAuction(EventWriter* out, Rng* rng) const {
    const XMarkParams& p = ds_->params_;
    out->Enter(ds_->closed_auction_);
    out->Enter(ds_->ca_seller_);
    out->Reference(ds_->l_ca_seller_);
    out->Leaf(ds_->ca_seller_person_);
    out->Leave(ds_->ca_seller_);
    out->Enter(ds_->ca_buyer_);
    out->Reference(ds_->l_ca_buyer_);
    out->Leaf(ds_->ca_buyer_person_);
    out->Leave(ds_->ca_buyer_);
    out->Enter(ds_->ca_itemref_);
    out->Reference(ds_->l_ca_itemref_[PickRegion(rng)]);
    out->Leaf(ds_->ca_itemref_item_);
    out->Leave(ds_->ca_itemref_);
    out->Leaf(ds_->price_);
    out->Leaf(ds_->ca_date_);
    out->Leaf(ds_->ca_quantity_);
    out->Leaf(ds_->ca_type_);
    if (rng->NextBool(p.prob_annotation)) {
      EmitAnnotation(out, rng, ds_->ca_annotation_, ds_->l_author_ca_);
    }
    out->Leave(ds_->closed_auction_);
  }

  const XMarkDataset* ds_;
};

std::unique_ptr<InstanceStream> XMarkDataset::MakeStream() const {
  return std::make_unique<XMarkStream>(this);
}

std::unique_ptr<ShardedInstanceSource> XMarkDataset::MakeShardedSource() const {
  return std::make_unique<XMarkStream>(this);
}

}  // namespace ssum
