// Fixture: src/parapll/ defines into parapll::parallel, in every spelling
// the rule accepts: qualified, nested under a bare `parapll`, with a
// nested detail namespace, and file-local anonymous namespaces. A
// using-directive opens nothing.
using namespace parapll::pll;

namespace {
int FileLocal() { return 0; }
}  // namespace

namespace parapll::parallel {
namespace detail {
int Helper() { return 1; }
}  // namespace detail
}  // namespace parapll::parallel

namespace parapll {
namespace parallel {
namespace {
struct Local {
  int value = 2;
};
}  // namespace
int Exported() { return Local{}.value; }
}  // namespace parallel
}  // namespace parapll
