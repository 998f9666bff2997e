// A clean header.

#ifndef CROSSMODAL_UTIL_CLEAN_H_
#define CROSSMODAL_UTIL_CLEAN_H_
namespace crossmodal {
[[nodiscard]] Status Fine();
// rand() and std::cout and new Foo() in a comment are fine.
const char* kMsg = "so is new Foo() in a string";
}  // namespace crossmodal
#endif  // CROSSMODAL_UTIL_CLEAN_H_
