#pragma once
// Median selection for rc_legalize's median pulls (private to the rap
// module; rap_test checks it against std::nth_element).

#include <vector>

#include "mth/util/geometry.hpp"

namespace mth::rap::detail {

/// Median of v, which is reordered in place; `fallback` when v is empty.
/// For an even size it is the midpoint of the two middle values, rounded
/// toward zero. Up to 64 values a quickselect with a branch-free partition
/// finds the upper middle; above that std::nth_element does. Both order
/// statistics are unique values, so the two paths agree.
Dbu median_of(std::vector<Dbu>& v, Dbu fallback);

}  // namespace mth::rap::detail
