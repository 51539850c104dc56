#include "safespec/shadow_structures.h"

namespace safespec::shadow {

const char* to_string(FullPolicy policy) {
  switch (policy) {
    case FullPolicy::kDrop:
      return "drop";
    case FullPolicy::kStall:
      return "stall";
  }
  return "?";
}

}  // namespace safespec::shadow
