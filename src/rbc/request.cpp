#include "rbc/request.hpp"

namespace rbc {

int Test(Request* request, int* flag, Status* st) {
  if (request == nullptr) throw mpisim::UsageError("rbc::Test: null request");
  const bool done = request->Poll(st);
  if (flag != nullptr) *flag = done ? 1 : 0;
  return 0;
}

int Wait(Request* request, Status* st) {
  if (request == nullptr) throw mpisim::UsageError("rbc::Wait: null request");
  mpisim::WaitUntil([&] { return request->Poll(st); }, "rbc: Wait");
  return 0;
}

int Testall(std::span<Request> requests, int* flag) {
  bool all = true;
  for (Request& r : requests) all = r.Poll(nullptr) && all;
  if (flag != nullptr) *flag = all ? 1 : 0;
  return 0;
}

int Waitall(std::span<Request> requests) {
  mpisim::WaitUntil(
      [&] {
        int flag = 0;
        Testall(requests, &flag);
        return flag != 0;
      },
      "rbc: Waitall");
  return 0;
}

}  // namespace rbc
