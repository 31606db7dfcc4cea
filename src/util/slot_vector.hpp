// A vector whose clear() keeps its elements alive.
//
// The co-estimation hot path buffers records that own heap storage
// (trigger inputs, behavioral states) once per reaction and drops them all
// at the end of a batch or a run. With a std::vector every clear() frees
// that storage and every refill allocates it again. SlotVector keeps the
// cleared elements as spare slots: next_slot() hands back an old element,
// and copy-assigning into its members reuses their capacity, so once the
// slots have grown to a run's depth refilling allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

namespace socpower {

template <typename T>
class SlotVector {
 public:
  /// Append one element and return it. A reused slot still holds its old
  /// contents: the caller overwrites every field it reads later.
  T& next_slot() {
    if (size_ == slots_.size()) slots_.emplace_back();
    return slots_[size_++];
  }
  /// Forget the elements; their storage stays for the next fill.
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T* begin() const { return slots_.data(); }
  [[nodiscard]] const T* end() const { return slots_.data() + size_; }

 private:
  std::vector<T> slots_;
  std::size_t size_ = 0;
};

}  // namespace socpower
