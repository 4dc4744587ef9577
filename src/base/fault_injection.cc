#include "base/fault_injection.h"

#include "base/rng.h"

namespace omqc {

FaultPlan RandomFaultPlan(SplitMix64& rng) {
  FaultPlan plan;
  plan.seed = rng.state();
  switch (rng.Below(4)) {
    case 0:
      plan.deadline_at_check = rng.Between(1, 4000);
      break;
    case 1:
      plan.cancel_at_check = rng.Between(1, 4000);
      break;
    case 2:
      plan.memory_at_charge = rng.Between(1, 256);
      break;
    default:
      break;  // one in four plans is fault-free (control group)
  }
  if (rng.Chance(25)) plan.fail_insert_at = rng.Between(1, 16);
  return plan;
}

}  // namespace omqc
