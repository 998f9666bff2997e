// Iterates unordered containers.
#include <unordered_map>
#include <vector>
void Collect(const std::unordered_map<int, int>& counts,
             std::vector<int>* out) {
  for (const auto& [k, v] : counts) {
    out->push_back(k + v);
  }
}
void Sum(const std::unordered_map<int, int>& counts,
         int* total) {
  // cmlint: unordered-ok — integer addition is commutative
  for (const auto& [k, v] : counts) {
    *total += v;
  }
}
size_t CountOnly(const std::unordered_map<int, int>& counts) {
  size_t n = 0;
  for (const auto& [k, v] : counts) n = n + 1;
  return n;
}
