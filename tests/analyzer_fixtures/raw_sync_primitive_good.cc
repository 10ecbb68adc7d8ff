// Known-good fixture for the raw-sync-primitive check: the annotated
// wrappers, with the raw spellings only in comments and string literals.
#include "support.h"

namespace fixtures {

// std::mutex and notify_one( in a comment are not code.
class Counter {
 public:
  void Add() {
    common::MutexLock lock(&mu_);
    ++count_;
    cv_.NotifyAll();
  }

 private:
  common::Mutex mu_;
  common::CondVar cv_;
  int count_ GUARDED_BY(mu_) = 0;
};

const char* kDoc = "std::condition_variable in a string";
const char* kRaw = R"(std::shared_mutex notify_all( in a raw string)";

}  // namespace fixtures
