// Fixture: headers may forward-declare another library's types; only a
// .cpp defining into a foreign namespace is a finding.
#pragma once

namespace parapll::util {
class JsonWriter;
}  // namespace parapll::util

namespace parapll::obs {
void WriteTo(util::JsonWriter& writer);
}  // namespace parapll::obs
