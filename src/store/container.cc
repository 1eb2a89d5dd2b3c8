#include "store/container.h"

#include <unistd.h>

#include <cstring>
#include <memory>

#include "common/hash.h"
#include "common/status_builder.h"

namespace ssum {
namespace {

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void StoreU32(char* at, uint32_t v) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<char>(v >> (8 * i));
}

uint32_t LoadU32(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

uint64_t LoadU64(std::string_view bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

Status Truncated(size_t offset, const char* what, uint64_t need,
                 uint64_t have) {
  StatusBuilder b(StatusCode::kOutOfRange);
  b.ByteOffset(offset);
  b << "container truncated in " << what << ": need " << need
    << " more bytes, have " << have;
  return b;
}

}  // namespace

const char* PayloadKindName(uint32_t kind) {
  switch (static_cast<PayloadKind>(kind)) {
    case PayloadKind::kAnnotations:
      return "annotations";
    case PayloadKind::kSquareMatrix:
      return "matrix";
    case PayloadKind::kSummary:
      return "summary";
    case PayloadKind::kServeRequest:
      return "serve-request";
    case PayloadKind::kServeResponse:
      return "serve-response";
    case PayloadKind::kAnnotationDelta:
      return "annotation-delta";
  }
  return "unknown";
}

Result<std::string_view> Container::Section(uint32_t tag) const {
  for (const ContainerSection& s : sections) {
    if (s.tag == tag) return s.payload;
  }
  return Status::NotFound("container has no section with tag " +
                          std::to_string(tag));
}

Result<ContainerInfo> PeekContainer(std::string_view bytes) {
  if (bytes.size() < kContainerHeaderSize) {
    return Truncated(bytes.size(), "header", kContainerHeaderSize,
                     bytes.size());
  }
  if (std::memcmp(bytes.data(), kContainerMagic, kContainerMagicSize) != 0) {
    return DataLossAt(0) << "bad container magic";
  }
  const uint32_t stored_crc = LoadU32(bytes, 20);
  const uint32_t actual_crc = Crc32c(bytes.substr(0, 20));
  if (stored_crc != actual_crc) {
    return DataLossAt(20) << "header checksum mismatch";
  }
  ContainerInfo info;
  info.format_version = LoadU32(bytes, 8);
  info.payload_kind = LoadU32(bytes, 12);
  info.section_count = LoadU32(bytes, 16);
  return info;
}

Result<Container> ParseContainer(std::string_view bytes) {
  ContainerInfo info;
  SSUM_ASSIGN_OR_RETURN(info, PeekContainer(bytes));
  if (info.format_version != kContainerFormatVersion) {
    return Status::FailedPrecondition(
        "unsupported container format version " +
        std::to_string(info.format_version) + " (reader speaks version " +
        std::to_string(kContainerFormatVersion) + ")");
  }

  // Trailer first: it pins the intended total size, so truncation is
  // reported as truncation instead of as a mangled section stream.
  if (bytes.size() < kContainerHeaderSize + kContainerTrailerSize) {
    return Truncated(bytes.size(), "trailer",
                     kContainerHeaderSize + kContainerTrailerSize,
                     bytes.size());
  }
  const size_t trailer_at = bytes.size() - kContainerTrailerSize;
  const uint64_t declared_size = LoadU64(bytes, trailer_at);
  if (declared_size != bytes.size()) {
    if (declared_size > bytes.size()) {
      return Truncated(trailer_at, "body", declared_size, bytes.size());
    }
    return DataLossAt(trailer_at)
           << "trailer declares " << declared_size << " bytes but container"
           << " has " << bytes.size();
  }
  const uint32_t trailer_crc = LoadU32(bytes, trailer_at + 8);
  if (trailer_crc != Crc32c(bytes.substr(0, trailer_at + 8))) {
    return DataLossAt(trailer_at + 8) << "trailer checksum mismatch";
  }

  Container container;
  container.info = info;
  container.sections.reserve(info.section_count);
  size_t at = kContainerHeaderSize;
  for (uint32_t s = 0; s < info.section_count; ++s) {
    if (trailer_at - at < kContainerSectionOverhead) {
      return DataLossAt(at) << "section " << s
                            << " header overruns the trailer";
    }
    const uint32_t tag = LoadU32(bytes, at);
    const uint64_t size = LoadU64(bytes, at + 4);
    const size_t payload_at = at + 12;
    if (size > trailer_at - payload_at ||
        trailer_at - payload_at - size < 4) {
      return DataLossAt(at + 4)
             << "section " << s << " payload (" << size
             << " bytes) overruns the trailer";
    }
    const std::string_view payload = bytes.substr(payload_at, size);
    const uint32_t stored_crc = LoadU32(bytes, payload_at + size);
    if (stored_crc != Crc32c(payload)) {
      return DataLossAt(payload_at)
             << "section " << s << " (tag " << tag << ") checksum mismatch";
    }
    container.sections.push_back(ContainerSection{tag, payload});
    at = payload_at + size + 4;
  }
  if (at != trailer_at) {
    return DataLossAt(at) << (trailer_at - at)
                          << " undeclared bytes between the last section and"
                          << " the trailer";
  }
  return container;
}

ContainerWriter::ContainerWriter(uint32_t payload_kind,
                                 uint32_t format_version) {
  out_.append(kContainerMagic, kContainerMagicSize);
  AppendU32(out_, format_version);
  AppendU32(out_, payload_kind);
  // Section count and header CRC are sealed by Finish().
  out_.append(8, '\0');
}

void ContainerWriter::AddSection(uint32_t tag, std::string_view payload) {
  char* at = ReserveSection(tag, payload.size());
  if (!payload.empty()) std::memcpy(at, payload.data(), payload.size());
}

char* ContainerWriter::ReserveSection(uint32_t tag, size_t size) {
  // Room for this section and the trailer, so a container with one large
  // section is built with a single allocation and no regrowth copy.
  out_.reserve(out_.size() + kContainerSectionOverhead + size +
               kContainerTrailerSize);
  AppendU32(out_, tag);
  AppendU64(out_, size);
  const size_t offset = out_.size();
  out_.resize(offset + size + 4);
  sections_.push_back({offset, size});
  return out_.data() + offset;
}

std::string ContainerWriter::Finish() && {
  for (const Section& section : sections_) {
    StoreU32(out_.data() + section.offset + section.size,
             Crc32c(out_.data() + section.offset, section.size));
  }
  StoreU32(out_.data() + 16, static_cast<uint32_t>(sections_.size()));
  StoreU32(out_.data() + 20, Crc32c(out_.data(), 20));
  AppendU64(out_, out_.size() + kContainerTrailerSize);
  AppendU32(out_, Crc32c(out_));
  return std::move(out_);
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view bytes) {
  // Unique-enough temp name: pid + address entropy keeps concurrent
  // installers of the same artifact from clobbering each other's staging
  // file; the final rename is last-writer-wins either way.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned long>(getpid())) +
      "." + HashToHex(reinterpret_cast<uintptr_t>(&path) ^
                      HashBytes(path));
  Status st = [&]() -> Status {
    std::unique_ptr<WritableFile> out;
    SSUM_ASSIGN_OR_RETURN(out, env->NewWritableFile(tmp));
    SSUM_RETURN_NOT_OK(out->Append(bytes));
    SSUM_RETURN_NOT_OK(out->Flush());
    // Durability barrier: the tmp file's bytes must be on media *before*
    // the rename publishes them, or a crash could expose a renamed
    // half-write as the current artifact.
    SSUM_RETURN_NOT_OK(out->Sync());
    SSUM_RETURN_NOT_OK(out->Close());
    SSUM_RETURN_NOT_OK(env->RenameFile(tmp, path));
    // And the rename itself: fsync the directory so the publish survives a
    // crash too (the file was durable; the directory entry must be).
    const size_t slash = path.find_last_of('/');
    const std::string parent =
        slash == std::string::npos ? std::string(".") : path.substr(0, slash);
    return env->SyncDir(parent);
  }();
  if (!st.ok()) (void)env->RemoveFile(tmp);  // best-effort staging cleanup
  return st;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  return AtomicWriteFile(Env::Default(), path, bytes);
}

Result<std::string> ReadFileBytes(Env* env, const std::string& path) {
  return env->ReadFile(path);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  return Env::Default()->ReadFile(path);
}

}  // namespace ssum
