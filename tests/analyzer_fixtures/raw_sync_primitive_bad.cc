// Known-bad fixture for the raw-sync-primitive check (the check covers
// src/, tests/, bench/ and examples/): locks and waits that bypass
// common::Mutex / common::CondVar.
#include <condition_variable>
#include <mutex>

namespace fixtures {

std::mutex g_mu;               // BAD: raw mutex
std::condition_variable g_cv;  // BAD: raw condition variable
std::recursive_mutex g_rmu;    // BAD: raw recursive mutex

void Wake() {
  g_cv.notify_one();  // BAD: raw notify
}

// A raw string that spells a primitive is not code.
const char* kDoc = R"(std::shared_mutex notify_all()";

}  // namespace fixtures
