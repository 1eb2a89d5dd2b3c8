#include "common/status_builder.h"

namespace ssum {

namespace {

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk:
      break;  // a builder for OK is a programming error; degrade to Internal
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kIoError:
      return Status::IoError(std::move(msg));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(msg));
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
  }
  return Status::Internal("StatusBuilder built with OK code: " +
                          std::move(msg));
}

}  // namespace

Status StatusBuilder::Build() const {
  std::string msg = message_.str();
  std::string where;
  if (!source_.empty()) {
    where += source_;
    if (line_ > 0) where.append(":").append(std::to_string(line_));
  } else if (line_ > 0) {
    where += "line " + std::to_string(line_);
  }
  if (byte_offset_ >= 0) {
    if (!where.empty()) where += ", ";
    where += "byte " + std::to_string(byte_offset_);
  }
  if (!where.empty()) msg += " (" + where + ")";
  return MakeStatus(code_, std::move(msg));
}

}  // namespace ssum
