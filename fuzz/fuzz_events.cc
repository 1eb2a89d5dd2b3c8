// Fuzz harness for the event-block annotator (stats/annotate.h).
//
// Oracle: the bytes decode into one traversal (fuzz/event_fuzz.h), which
// AnnotateSchema or AnnotateUnits consumes block by block. A plain
// per-event reference annotator must agree on the Status code and message
// and, when both succeed, on every counter. Inputs over 4096 events cross
// block boundaries.

#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "event_fuzz.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const ssum::fuzz::EventCheck check = ssum::fuzz::CheckEvents(data, size);
  SSUM_CHECK(check.mismatch.empty(),
             "block annotator disagrees with the reference: " + check.mismatch);
  return 0;
}
