#ifndef LAWSDB_COMMON_ENV_H_
#define LAWSDB_COMMON_ENV_H_

#include <cstdint>

namespace laws {

/// Unified parsing for the LAWS_* environment knobs. Every knob in the
/// codebase goes through these helpers instead of a bare atol/strtol so
/// the rules are uniform everywhere:
///
///   - integers parse strictly: optional sign, decimal digits, nothing
///     else. "4096abc" is malformed (atol would silently read it as
///     4096), as are "", " 42" and "0x10";
///   - a malformed or out-of-range value falls back to the default and
///     logs one warning per variable per process (warn-once, so a knob
///     typo'd in a driver script cannot flood stderr from a hot path);
///   - flags accept "0"/"false"/"off" (case-insensitive) as false and
///     any other non-empty value as true; unset/empty means default.
///
/// The full knob inventory lives in README.md ("Environment knobs").

/// Strict full-string integer parse. Returns false on null/empty input,
/// trailing garbage, or overflow; `*out` is written only on success.
bool ParseInt64Strict(const char* text, int64_t* out);

/// Reads an integer knob. Unset returns `def`; malformed input or a
/// value outside [min_value, max_value] warns once and returns `def`.
int64_t EnvInt64(const char* name, int64_t def, int64_t min_value,
                 int64_t max_value);

/// Reads a boolean knob. Unset or empty returns `def`; "0", "false",
/// "off" (case-insensitive) are false; any other value is true.
bool EnvFlag(const char* name, bool def);

/// Flag semantics over an explicit value (exposed for tests): nullptr or
/// "" yields `def`.
bool ParseFlagValue(const char* text, bool def);

/// Testing hook: clears the warn-once registry so malformed-knob tests
/// can assert the warning fires.
void ResetEnvWarningsForTest();

}  // namespace laws

#endif  // LAWSDB_COMMON_ENV_H_
