// Known-good fixture for the guarded-member check: every mutable member
// of a Mutex-owning class is annotated, exempt by type, or waived.
#include <atomic>

#include "support.h"

namespace fixtures {

class Inbox {
 public:
  void Post(int v);
  int size() const;
  Inbox& operator=(const Inbox&) = delete;

 private:
  common::Mutex mu_;
  common::CondVar cv_;
  std::vector<int> items_ GUARDED_BY(mu_);
  int posted_ GUARDED_BY(mu_) = 0;
  std::atomic<int> waiters_{0};
  const int capacity_ = 8;
  int epoch_ = 0;  // NOLOCK(written before the service threads start)
};

// No Mutex member: nothing to guard.
struct Plain {
  int a = 0;
  std::vector<int> b;
};

}  // namespace fixtures
