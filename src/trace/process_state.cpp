#include "trace/process_state.h"

namespace wildenergy::trace {

bool parse_process_state(std::string_view text, ProcessState& out) {
  // The five spellings differ in length or first letter: pick the one
  // candidate, then compare once.
  ProcessState candidate{};
  switch (text.size()) {
    case 7:
      candidate = text[0] == 'v' ? ProcessState::kVisible : ProcessState::kService;
      break;
    case 10:
      candidate = text[0] == 'f' ? ProcessState::kForeground : ProcessState::kBackground;
      break;
    case 11:
      candidate = ProcessState::kPerceptible;
      break;
    default:
      return false;
  }
  if (text != to_string(candidate)) return false;
  out = candidate;
  return true;
}

}  // namespace wildenergy::trace
