// Declares a fallible function without [[nodiscard]].
#ifndef CROSSMODAL_UTIL_DROPS_STATUS_H_
#define CROSSMODAL_UTIL_DROPS_STATUS_H_
namespace crossmodal {
Status Frobnicate();
Result<int> Count();
}  // namespace crossmodal
#endif  // CROSSMODAL_UTIL_DROPS_STATUS_H_
