// Fixture: a build/ source defining symbols of the libraries below it, in
// both the qualified and the nested spelling. The definitions would link
// only when the build library does, hiding an inverted dependency.
namespace parapll::build {
int OwnHelper() { return 1; }
}  // namespace parapll::build

namespace parapll::pll {
int DeclaredInPll() { return 2; }
}  // namespace parapll::pll

namespace parapll {
namespace vtime {
int DeclaredInVtime() { return 3; }
}  // namespace vtime
}  // namespace parapll
