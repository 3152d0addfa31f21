#include "src/common/status.h"

namespace shield {

std::string_view CodeName(Code code) {
  switch (code) {
    case Code::kOk:
      return "OK";
    case Code::kNotFound:
      return "NOT_FOUND";
    case Code::kAlreadyExists:
      return "ALREADY_EXISTS";
    case Code::kIntegrityFailure:
      return "INTEGRITY_FAILURE";
    case Code::kRollbackDetected:
      return "ROLLBACK_DETECTED";
    case Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Code::kCapacityExceeded:
      return "CAPACITY_EXCEEDED";
    case Code::kUnsupported:
      return "UNSUPPORTED";
    case Code::kIoError:
      return "IO_ERROR";
    case Code::kProtocolError:
      return "PROTOCOL_ERROR";
    case Code::kInternal:
      return "INTERNAL";
    case Code::kPartitionRecovering:
      return "PARTITION_RECOVERING";
    case Code::kFailingOver:
      return "FAILING_OVER";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  std::string out(CodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace shield
