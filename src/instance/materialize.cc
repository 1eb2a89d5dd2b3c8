#include "instance/materialize.h"

#include "common/random.h"
#include "common/string_util.h"

namespace ssum {

namespace {

class TreeBuilder : public InstanceVisitor {
 public:
  explicit TreeBuilder(const SchemaGraph& schema)
      : schema_(schema), tree_(&schema) {}

  void OnEnter(ElementId e) override {
    if (!status_.ok()) return;
    if (stack_.empty()) {
      if (e != schema_.root()) {
        status_ = Status::FailedPrecondition("stream does not start at root");
        return;
      }
      stack_.push_back(tree_.root());
      return;
    }
    auto node = tree_.AddNode(stack_.back(), e);
    if (!node.ok()) {
      status_ = node.status();
      return;
    }
    stack_.push_back(*node);
  }

  void OnReference(LinkId) override {
    // Dropped by design — see header comment.
  }

  void OnLeave(ElementId) override {
    if (!status_.ok()) return;
    if (stack_.empty()) {
      status_ = Status::FailedPrecondition("unbalanced leave event");
      return;
    }
    stack_.pop_back();
  }

  Result<DataTree> Take() {
    SSUM_RETURN_NOT_OK(status_);
    if (!stack_.empty()) {
      return Status::FailedPrecondition("stream left unclosed nodes");
    }
    return std::move(tree_);
  }

 private:
  const SchemaGraph& schema_;
  DataTree tree_;
  std::vector<NodeId> stack_;
  Status status_;
};

class XmlBuilder : public InstanceVisitor {
 public:
  XmlBuilder(const SchemaGraph& schema, uint64_t seed)
      : schema_(schema), rng_(seed) {}

  void OnEnter(ElementId e) override {
    if (!status_.ok()) return;
    const std::string& label = schema_.label(e);
    if (stack_.empty()) {
      doc_.root.name = label;
      stack_.push_back(&doc_.root);
      return;
    }
    if (!label.empty() && label[0] == '@') {
      stack_.back()->attributes.emplace_back(label.substr(1),
                                             SynthesizeValue(e));
      stack_.push_back(nullptr);  // matched by OnLeave
      return;
    }
    XmlElement child;
    child.name = label;
    if (schema_.type(e).kind == TypeKind::kSimple) {
      child.text = SynthesizeValue(e);
    }
    XmlElement* parent = stack_.back();
    parent->children.push_back(std::move(child));
    stack_.push_back(&parent->children.back());
  }

  void OnReference(LinkId) override {
    // Reference instances are carried by the idref attribute/element values
    // synthesized above; nothing further to record.
  }

  void OnLeave(ElementId) override {
    if (!status_.ok()) return;
    if (stack_.empty()) {
      status_ = Status::FailedPrecondition("unbalanced leave event");
      return;
    }
    stack_.pop_back();
  }

  Result<XmlDocument> Take() {
    SSUM_RETURN_NOT_OK(status_);
    if (!stack_.empty()) {
      return Status::FailedPrecondition("stream left unclosed nodes");
    }
    return std::move(doc_);
  }

 private:
  std::string SynthesizeValue(ElementId e) {
    ++serial_;
    switch (schema_.type(e).atomic) {
      case AtomicKind::kInt:
        return std::to_string(rng_.NextBounded(100000));
      case AtomicKind::kFloat:
        return FormatDouble(static_cast<double>(rng_.NextBounded(100000)) /
                                100.0,
                            2);
      case AtomicKind::kDate:
        return std::to_string(1998 + rng_.NextBounded(9)) + "-" +
               std::to_string(1 + rng_.NextBounded(12)) + "-" +
               std::to_string(1 + rng_.NextBounded(28));
      case AtomicKind::kId:
        return schema_.label(e) + std::to_string(serial_);
      case AtomicKind::kIdRef:
        return "ref" + std::to_string(1 + rng_.NextBounded(serial_));
      case AtomicKind::kString:
      case AtomicKind::kNone:
        break;
    }
    return std::string("v").append(std::to_string(serial_));
  }

  const SchemaGraph& schema_;
  Rng rng_;
  uint64_t serial_ = 0;
  XmlDocument doc_;
  std::vector<XmlElement*> stack_;
  Status status_;
};

}  // namespace

Result<DataTree> MaterializeToDataTree(const InstanceStream& stream) {
  TreeBuilder builder(stream.schema());
  SSUM_RETURN_NOT_OK(stream.Accept(&builder));
  return builder.Take();
}

Result<XmlDocument> MaterializeToXml(const InstanceStream& stream,
                                     const XmlMaterializeOptions& options) {
  XmlBuilder builder(stream.schema(), options.value_seed);
  SSUM_RETURN_NOT_OK(stream.Accept(&builder));
  return builder.Take();
}

}  // namespace ssum
