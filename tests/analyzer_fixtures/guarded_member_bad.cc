// Known-bad fixture for the guarded-member check (the check keys on
// "guarded_member" in the filename / src/ paths): data members of a
// Mutex-owning class with neither GUARDED_BY nor NOLOCK(reason).
#include "support.h"

namespace fixtures {

class Inbox {
 public:
  void Post(int v);

 private:
  common::Mutex mu_;
  std::vector<int> items_;  // BAD: no annotation
  int posted_ = 0;          // BAD: no annotation
  int dropped_ GUARDED_BY(mu_) = 0;
};

struct Stats {
  common::Mutex mu;
  long bytes;  // BAD: no annotation
};

}  // namespace fixtures
