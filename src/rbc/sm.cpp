#include "rbc/sm.hpp"

namespace rbc::detail {

void RunToCompletion(std::shared_ptr<RequestImpl> sm, std::string_view what) {
  Request req(std::move(sm));
  mpisim::WaitUntil([&] { return req.Poll(nullptr); }, what);
}

}  // namespace rbc::detail
