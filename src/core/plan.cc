#include "core/plan.h"

namespace gks {

const char* PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kAuto: return "auto";
    case PlanMode::kMerge: return "merge";
    case PlanMode::kProbe: return "probe";
  }
  return "auto";
}

bool ParsePlanMode(std::string_view text, PlanMode* out) {
  if (text == "auto") *out = PlanMode::kAuto;
  else if (text == "merge") *out = PlanMode::kMerge;
  else if (text == "probe") *out = PlanMode::kProbe;
  else return false;
  return true;
}

}  // namespace gks
