#include <gtest/gtest.h>

#include "instance/conformance.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"

namespace ssum {
namespace {

struct Fixture {
  SchemaGraph schema;
  ElementId items, item, name, tag, kind_choice, kind_a, kind_b;
  ElementId owners, owner, owner_id, item_owner;
  LinkId owned_by;

  Fixture() : schema(Build(this)) {}

  static SchemaGraph Build(Fixture* f) {
    SchemaBuilder b("db");
    f->items = b.Rcd(b.Root(), "items");
    f->item = b.SetRcd(f->items, "item");
    f->name = b.Simple(f->item, "name");
    f->tag = b.SetSimple(f->item, "tag");
    f->kind_choice = b.Choice(f->item, "kind");
    f->kind_a = b.Simple(f->kind_choice, "physical");
    f->kind_b = b.Simple(f->kind_choice, "digital");
    f->item_owner = b.Attr(f->item, "owner", AtomicKind::kIdRef);
    f->owners = b.Rcd(b.Root(), "owners");
    f->owner = b.SetRcd(f->owners, "owner");
    f->owner_id = b.Attr(f->owner, "id", AtomicKind::kId);
    f->owned_by = b.Link(f->item, f->owner, f->item_owner, f->owner_id);
    return std::move(b).Build();
  }
};

TEST(DataTreeTest, BuildAndNavigate) {
  Fixture f;
  DataTree t(&f.schema);
  EXPECT_EQ(t.size(), 1u);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  NodeId name = *t.AddNode(item, f.name, "Widget");
  EXPECT_EQ(t.element(name), f.name);
  EXPECT_EQ(t.parent(name), item);
  EXPECT_EQ(t.value(name), "Widget");
  EXPECT_EQ(t.children(item).size(), 1u);
}

TEST(DataTreeTest, RejectsWrongParentage) {
  Fixture f;
  DataTree t(&f.schema);
  // item directly under root: schema parent is items, not db.
  EXPECT_TRUE(t.AddNode(t.root(), f.item).status().IsInvalidArgument());
  EXPECT_TRUE(t.AddNode(99, f.items).status().IsInvalidArgument());
  EXPECT_TRUE(t.AddNode(t.root(), 9999).status().IsInvalidArgument());
}

TEST(DataTreeTest, ReferencesValidateEndpoints) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  NodeId owners = *t.AddNode(t.root(), f.owners);
  NodeId owner = *t.AddNode(owners, f.owner);
  EXPECT_TRUE(t.AddReference(f.owned_by, item, owner).ok());
  EXPECT_EQ(t.references().size(), 1u);
  EXPECT_EQ(t.node_references(item).size(), 1u);
  // Wrong endpoint elements.
  EXPECT_TRUE(t.AddReference(f.owned_by, owner, item).IsInvalidArgument());
  EXPECT_TRUE(t.AddReference(99, item, owner).IsInvalidArgument());
}

TEST(DataTreeTest, AcceptEmitsPreOrder) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  (void)*t.AddNode(item, f.name);
  NodeId owners = *t.AddNode(t.root(), f.owners);
  NodeId owner = *t.AddNode(owners, f.owner);
  ASSERT_TRUE(t.AddReference(f.owned_by, item, owner).ok());

  // Records leaves as their enter + leave pair.
  struct Recorder : EventSink {
    std::vector<std::pair<char, uint32_t>> events;
    void Consume(const Event* block, size_t n) override {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t id = EventIdOf(block[i]);
        switch (EventTagOf(block[i])) {
          case EventTag::kEnter:
            events.push_back({'+', id});
            break;
          case EventTag::kReference:
            events.push_back({'r', id});
            break;
          case EventTag::kLeaf:
            events.push_back({'+', id});
            events.push_back({'-', id});
            break;
          case EventTag::kLeave:
            events.push_back({'-', id});
            break;
        }
      }
    }
  } rec;
  ASSERT_TRUE(t.Accept(&rec).ok());
  // Pre-order: root, items, item (with its reference), name, ..., owners.
  ASSERT_GE(rec.events.size(), 6u);
  EXPECT_EQ(rec.events[0], std::make_pair('+', f.schema.root()));
  EXPECT_EQ(rec.events[1], std::make_pair('+', f.items));
  EXPECT_EQ(rec.events[2], std::make_pair('+', f.item));
  EXPECT_EQ(rec.events[3], std::make_pair('r', f.owned_by));
  // Balanced enter/leave overall.
  int depth = 0;
  for (auto [kind, id] : rec.events) {
    if (kind == '+') ++depth;
    if (kind == '-') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ConformanceTest, AcceptsValidInstance) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  (void)*t.AddNode(item, f.name);
  (void)*t.AddNode(item, f.tag);
  (void)*t.AddNode(item, f.tag);  // SetOf: repeats allowed
  NodeId kind = *t.AddNode(item, f.kind_choice);
  (void)*t.AddNode(kind, f.kind_a);
  EXPECT_TRUE(CheckConformance(t).ok());
}

TEST(ConformanceTest, RejectsRepeatedSingleton) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  (void)*t.AddNode(item, f.name);
  (void)*t.AddNode(item, f.name);  // name is not SetOf
  EXPECT_TRUE(CheckConformance(t).IsFailedPrecondition());
}

TEST(ConformanceTest, EnforcesChoiceBranches) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  NodeId kind = *t.AddNode(item, f.kind_choice);
  (void)*t.AddNode(kind, f.kind_a);
  (void)*t.AddNode(kind, f.kind_b);  // both branches present
  EXPECT_TRUE(CheckConformance(t).IsFailedPrecondition());
  ConformanceOptions lax;
  lax.enforce_choice = false;
  EXPECT_TRUE(CheckConformance(t, lax).ok());
}

TEST(ConformanceTest, RequireAllRcdChildren) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  (void)item;
  ConformanceOptions strict;
  strict.require_all_rcd_children = true;
  // item lacks its non-SetOf children (name, kind, @owner).
  EXPECT_TRUE(CheckConformance(t, strict).IsFailedPrecondition());
}

TEST(CountingSinkTest, Counts) {
  Fixture f;
  DataTree t(&f.schema);
  NodeId items = *t.AddNode(t.root(), f.items);
  NodeId item = *t.AddNode(items, f.item);
  NodeId owners = *t.AddNode(t.root(), f.owners);
  NodeId owner = *t.AddNode(owners, f.owner);
  ASSERT_TRUE(t.AddReference(f.owned_by, item, owner).ok());
  CountingSink counter;
  ASSERT_TRUE(t.Accept(&counter).ok());
  EXPECT_EQ(counter.nodes(), 5u);
  EXPECT_EQ(counter.references(), 1u);
}

}  // namespace
}  // namespace ssum
