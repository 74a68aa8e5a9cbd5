// Amounts handed back at known future instants, settled when next read.
//
// A paced transfer returns its NIC share and its playout buffer when it
// ends. Arming a timer for each return costs an engine event that usually
// changes nothing; instead the owner files (instant, amount) here and takes
// what is due whenever it next reads or decides on the total. An amount is
// due at or before its instant — the moment its timer would have fired.
//
// A min-heap on the instant in a vector that keeps its capacity, so steady
// state allocates nothing.

#ifndef SRC_COMMON_DUE_AMOUNTS_H_
#define SRC_COMMON_DUE_AMOUNTS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.h"

namespace tiger {

class DueAmounts {
 public:
  void Add(TimePoint at, int64_t amount) {
    items_.push_back(Item{at, amount});
    std::push_heap(items_.begin(), items_.end(), std::greater<>());
  }

  // Removes every amount due at or before `now` and returns their sum.
  int64_t TakeDue(TimePoint now) {
    int64_t sum = 0;
    while (!items_.empty() && items_.front().at <= now) {
      sum += items_.front().amount;
      std::pop_heap(items_.begin(), items_.end(), std::greater<>());
      items_.pop_back();
    }
    return sum;
  }

  // The sum TakeDue(now) would return, leaving the amounts in place.
  int64_t DueBy(TimePoint now) const {
    int64_t sum = 0;
    for (const Item& item : items_) {
      if (item.at <= now) {
        sum += item.amount;
      }
    }
    return sum;
  }

  void Clear() { items_.clear(); }

 private:
  struct Item {
    TimePoint at;
    int64_t amount = 0;
    // With std::greater, the heap's front is the earliest instant.
    friend bool operator>(const Item& a, const Item& b) { return a.at > b.at; }
  };
  std::vector<Item> items_;
};

}  // namespace tiger

#endif  // SRC_COMMON_DUE_AMOUNTS_H_
