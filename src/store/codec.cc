#include "store/codec.h"

#include <bit>
#include <cstring>

#include "store/container.h"

namespace ssum {
namespace {

// Section tags. Tags are scoped to a payload kind; reusing small integers
// across kinds is fine because the kind is in the container header.
constexpr uint32_t kSecCards = 1;
constexpr uint32_t kSecStructuralCounts = 2;
constexpr uint32_t kSecValueCounts = 3;
constexpr uint32_t kSecMatrix = 1;
constexpr uint32_t kSecAbstract = 1;
constexpr uint32_t kSecRepresentative = 2;
constexpr uint32_t kSecDeltaLineage = 1;
constexpr uint32_t kSecDeltaCards = 2;
constexpr uint32_t kSecDeltaStructural = 3;
constexpr uint32_t kSecDeltaValue = 4;

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void StoreU64(char* at, uint64_t v) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<char>(v >> (8 * i));
}

uint64_t LoadU64(const char* at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(at[i]);
  }
  return v;
}

/// Bounds-checked little-endian cursor over one section payload. Decoders
/// pre-validate the total size, so reads here failing is a codec bug — but
/// the reader still refuses to run past the end (returns false) so that a
/// missed validation cannot become an out-of-bounds read.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : p_(payload) {}

  bool ReadU32(uint32_t* v) {
    if (p_.size() - at_ < 4) return false;
    *v = 0;
    for (int i = 3; i >= 0; --i) {
      *v = (*v << 8) | static_cast<unsigned char>(p_[at_ + i]);
    }
    at_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (p_.size() - at_ < 8) return false;
    *v = LoadU64(p_.data() + at_);
    at_ += 8;
    return true;
  }
  size_t remaining() const { return p_.size() - at_; }

 private:
  std::string_view p_;
  size_t at_ = 0;
};

std::string EncodeU64Array(const std::vector<uint64_t>& values) {
  std::string out;
  out.reserve(8 + 8 * values.size());
  AppendU64(out, values.size());
  for (uint64_t v : values) AppendU64(out, v);
  return out;
}

std::string EncodeU32Array(const std::vector<uint32_t>& values) {
  std::string out;
  out.reserve(8 + 4 * values.size());
  AppendU64(out, values.size());
  for (uint32_t v : values) AppendU32(out, v);
  return out;
}

/// Decodes a `count` + values section whose count must equal `expected`
/// (the shape the caller's schema implies).
Status DecodeU64Array(std::string_view payload, const char* what,
                      size_t expected, std::vector<uint64_t>* out) {
  PayloadReader r(payload);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::DataLoss(std::string(what) +
                            " section too small for its count field");
  }
  if (count > r.remaining() || count * 8 != r.remaining()) {
    return Status::DataLoss(std::string(what) + " section declares " +
                            std::to_string(count) + " entries but carries " +
                            std::to_string(r.remaining()) + " bytes");
  }
  if (count != expected) {
    return Status::FailedPrecondition(
        std::string(what) + " count " + std::to_string(count) +
        " does not match the schema (expected " + std::to_string(expected) +
        ")");
  }
  out->resize(count);
  for (uint64_t& v : *out) r.ReadU64(&v);
  return Status::OK();
}

Status DecodeU32Array(std::string_view payload, const char* what,
                      std::vector<uint32_t>* out, uint64_t max_count) {
  PayloadReader r(payload);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::DataLoss(std::string(what) +
                            " section too small for its count field");
  }
  if (count > r.remaining() || count * 4 != r.remaining()) {
    return Status::DataLoss(std::string(what) + " section declares " +
                            std::to_string(count) + " entries but carries " +
                            std::to_string(r.remaining()) + " bytes");
  }
  if (count > max_count) {
    return Status::FailedPrecondition(
        std::string(what) + " count " + std::to_string(count) +
        " exceeds the schema size " + std::to_string(max_count));
  }
  out->resize(count);
  for (uint32_t& v : *out) r.ReadU32(&v);
  return Status::OK();
}

Result<std::string_view> RequireSection(const Container& container,
                                        uint32_t tag, const char* what) {
  auto section = container.Section(tag);
  if (!section.ok()) {
    return Status::DataLoss(std::string("container is missing the ") + what +
                            " section");
  }
  return *section;
}

Status CheckKind(const Container& container, PayloadKind kind) {
  if (container.info.payload_kind != static_cast<uint32_t>(kind)) {
    return Status::FailedPrecondition(
        std::string("container holds a '") +
        PayloadKindName(container.info.payload_kind) + "' payload, not '" +
        PayloadKindName(static_cast<uint32_t>(kind)) + "'");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeAnnotations(const Annotations& annotations) {
  std::vector<uint64_t> cards(annotations.num_elements());
  for (size_t e = 0; e < cards.size(); ++e) {
    cards[e] = annotations.card(static_cast<ElementId>(e));
  }
  std::vector<uint64_t> slinks(annotations.num_structural_links());
  for (size_t l = 0; l < slinks.size(); ++l) {
    slinks[l] = annotations.structural_count(static_cast<LinkId>(l));
  }
  std::vector<uint64_t> vlinks(annotations.num_value_links());
  for (size_t l = 0; l < vlinks.size(); ++l) {
    vlinks[l] = annotations.value_count(static_cast<LinkId>(l));
  }
  ContainerWriter writer(PayloadKind::kAnnotations);
  writer.AddSection(kSecCards, EncodeU64Array(cards));
  writer.AddSection(kSecStructuralCounts, EncodeU64Array(slinks));
  writer.AddSection(kSecValueCounts, EncodeU64Array(vlinks));
  return std::move(writer).Finish();
}

Result<Annotations> DecodeAnnotations(const SchemaGraph& graph,
                                      std::string_view container_bytes) {
  Container container;
  SSUM_ASSIGN_OR_RETURN(container, ParseContainer(container_bytes));
  SSUM_RETURN_NOT_OK(CheckKind(container, PayloadKind::kAnnotations));

  std::string_view sec;
  std::vector<uint64_t> cards, slinks, vlinks;
  SSUM_ASSIGN_OR_RETURN(sec,
                        RequireSection(container, kSecCards, "cardinality"));
  SSUM_RETURN_NOT_OK(
      DecodeU64Array(sec, "cardinality", graph.size(), &cards));
  SSUM_ASSIGN_OR_RETURN(
      sec,
      RequireSection(container, kSecStructuralCounts, "structural-count"));
  SSUM_RETURN_NOT_OK(DecodeU64Array(
      sec, "structural-count", graph.structural_links().size(), &slinks));
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecValueCounts, "value-count"));
  SSUM_RETURN_NOT_OK(DecodeU64Array(sec, "value-count",
                                    graph.value_links().size(), &vlinks));

  Annotations annotations(graph);
  for (size_t e = 0; e < cards.size(); ++e) {
    annotations.set_card(static_cast<ElementId>(e), cards[e]);
  }
  for (size_t l = 0; l < slinks.size(); ++l) {
    annotations.set_structural_count(static_cast<LinkId>(l), slinks[l]);
  }
  for (size_t l = 0; l < vlinks.size(); ++l) {
    annotations.set_value_count(static_cast<LinkId>(l), vlinks[l]);
  }
  return annotations;
}

std::string EncodeSquareMatrix(const SquareMatrix& matrix) {
  const size_t n = matrix.size();
  ContainerWriter writer(PayloadKind::kSquareMatrix);
  char* at = writer.ReserveSection(kSecMatrix, 8 + 8 * n * n);
  StoreU64(at, n);
  for (double v : matrix.data()) {
    at += 8;
    StoreU64(at, std::bit_cast<uint64_t>(v));
  }
  return std::move(writer).Finish();
}

Result<SquareMatrix> DecodeSquareMatrix(std::string_view container_bytes,
                                        size_t expected_n) {
  Container container;
  SSUM_ASSIGN_OR_RETURN(container, ParseContainer(container_bytes));
  SSUM_RETURN_NOT_OK(CheckKind(container, PayloadKind::kSquareMatrix));
  std::string_view sec;
  SSUM_ASSIGN_OR_RETURN(sec, RequireSection(container, kSecMatrix, "matrix"));

  PayloadReader r(sec);
  uint64_t n = 0;
  if (!r.ReadU64(&n)) {
    return Status::DataLoss("matrix section too small for its order field");
  }
  // The order is bounded by the actual payload before any allocation: a
  // fabricated huge n cannot ask for more memory than the container itself
  // occupies.
  if (n > (1u << 20) || n * n * 8 != r.remaining()) {
    return Status::DataLoss("matrix section declares order " +
                            std::to_string(n) + " but carries " +
                            std::to_string(r.remaining()) + " bytes");
  }
  if (expected_n != 0 && n != expected_n) {
    return Status::FailedPrecondition(
        "matrix order " + std::to_string(n) +
        " does not match the schema (expected " +
        std::to_string(expected_n) + ")");
  }
  // The size check above pins n*n doubles after the order field, so the
  // copy-out runs over the payload directly instead of through `r`.
  SquareMatrix matrix(static_cast<size_t>(n), 0.0);
  const char* at = sec.data() + 8;
  for (size_t row = 0; row < n; ++row) {
    for (double& v : matrix.RowSpan(row)) {
      v = std::bit_cast<double>(LoadU64(at));
      at += 8;
    }
  }
  return matrix;
}

std::string EncodeSummary(const SchemaSummary& summary) {
  ContainerWriter writer(PayloadKind::kSummary);
  writer.AddSection(kSecAbstract, EncodeU32Array(summary.abstract_elements));
  writer.AddSection(kSecRepresentative,
                    EncodeU32Array(summary.representative));
  return std::move(writer).Finish();
}

Result<SchemaSummary> DecodeSummary(const SchemaGraph& graph,
                                    std::string_view container_bytes) {
  Container container;
  SSUM_ASSIGN_OR_RETURN(container, ParseContainer(container_bytes));
  SSUM_RETURN_NOT_OK(CheckKind(container, PayloadKind::kSummary));
  std::string_view sec;
  std::vector<uint32_t> abstract, representative;
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecAbstract, "abstract-element"));
  SSUM_RETURN_NOT_OK(
      DecodeU32Array(sec, "abstract-element", &abstract, graph.size()));
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecRepresentative, "representative"));
  SSUM_RETURN_NOT_OK(DecodeU32Array(sec, "representative", &representative,
                                    graph.size()));
  // BuildSummaryFromAssignment revalidates every Definition 2 invariant and
  // reconstructs the derived abstract links, exactly like the text loader.
  return BuildSummaryFromAssignment(graph, std::move(abstract),
                                    std::move(representative));
}

namespace {

/// Signed diffs travel as the two's-complement bit pattern in a u64 array,
/// so the delta sections reuse the annotations array codec byte-for-byte.
std::string EncodeI64Array(const std::vector<int64_t>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    bits[i] = std::bit_cast<uint64_t>(values[i]);
  }
  return EncodeU64Array(bits);
}

Status DecodeI64Array(std::string_view payload, const char* what,
                      size_t expected, std::vector<int64_t>* out) {
  std::vector<uint64_t> bits;
  SSUM_RETURN_NOT_OK(DecodeU64Array(payload, what, expected, &bits));
  out->resize(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    (*out)[i] = std::bit_cast<int64_t>(bits[i]);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeAnnotationDelta(const Fingerprint& parent_key,
                                  const AnnotationDelta& delta) {
  std::string lineage;
  lineage.reserve(5 * 8);
  AppendU64(lineage, parent_key.value);
  AppendU64(lineage, delta.parent_fingerprint);
  AppendU64(lineage, delta.child_fingerprint);
  AppendU64(lineage, delta.dirty_units);
  AppendU64(lineage, delta.total_units);
  ContainerWriter writer(PayloadKind::kAnnotationDelta);
  writer.AddSection(kSecDeltaLineage, lineage);
  writer.AddSection(kSecDeltaCards, EncodeI64Array(delta.d_card));
  writer.AddSection(kSecDeltaStructural, EncodeI64Array(delta.d_slink));
  writer.AddSection(kSecDeltaValue, EncodeI64Array(delta.d_vlink));
  return std::move(writer).Finish();
}

namespace {

/// Parses + kind-checks the container and decodes the lineage section into
/// `decoded`; shared by the full decoder and the schema-free peek.
Result<Container> DecodeDeltaLineage(std::string_view container_bytes,
                                     DecodedAnnotationDelta* decoded) {
  Container container;
  SSUM_ASSIGN_OR_RETURN(container, ParseContainer(container_bytes));
  SSUM_RETURN_NOT_OK(CheckKind(container, PayloadKind::kAnnotationDelta));
  std::string_view sec;
  SSUM_ASSIGN_OR_RETURN(sec,
                        RequireSection(container, kSecDeltaLineage, "lineage"));
  PayloadReader r(sec);
  if (sec.size() != 5 * 8 || !r.ReadU64(&decoded->parent_key.value) ||
      !r.ReadU64(&decoded->delta.parent_fingerprint) ||
      !r.ReadU64(&decoded->delta.child_fingerprint) ||
      !r.ReadU64(&decoded->delta.dirty_units) ||
      !r.ReadU64(&decoded->delta.total_units)) {
    return Status::DataLoss("lineage section carries " +
                            std::to_string(sec.size()) +
                            " bytes, expected 40");
  }
  return container;
}

}  // namespace

Result<DecodedAnnotationDelta> DecodeAnnotationDelta(
    const SchemaGraph& graph, std::string_view container_bytes) {
  DecodedAnnotationDelta decoded;
  Container container;
  SSUM_ASSIGN_OR_RETURN(container,
                        DecodeDeltaLineage(container_bytes, &decoded));
  std::string_view sec;
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecDeltaCards, "cardinality-delta"));
  SSUM_RETURN_NOT_OK(DecodeI64Array(sec, "cardinality-delta", graph.size(),
                                    &decoded.delta.d_card));
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecDeltaStructural,
                          "structural-count-delta"));
  SSUM_RETURN_NOT_OK(DecodeI64Array(sec, "structural-count-delta",
                                    graph.structural_links().size(),
                                    &decoded.delta.d_slink));
  SSUM_ASSIGN_OR_RETURN(
      sec, RequireSection(container, kSecDeltaValue, "value-count-delta"));
  SSUM_RETURN_NOT_OK(DecodeI64Array(sec, "value-count-delta",
                                    graph.value_links().size(),
                                    &decoded.delta.d_vlink));
  return decoded;
}

Result<DecodedAnnotationDelta> PeekAnnotationDelta(
    std::string_view container_bytes) {
  DecodedAnnotationDelta decoded;
  auto container = DecodeDeltaLineage(container_bytes, &decoded);
  if (!container.ok()) return container.status();
  return decoded;
}

}  // namespace ssum
