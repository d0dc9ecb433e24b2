// MISD text format: a human-readable description language for IS
// capabilities and semantics (paper Sec. 2 presents MISD as exactly such a
// language). An MKB can be saved to and reloaded from this format, so
// source administrators can author descriptions in text:
//
//   SOURCE IS1 RELATION Customer (Name string, Addr string, Age int)
//       ORDER BY (Name)
//   JOIN CONSTRAINT JC1 BETWEEN Customer AND FlightRes
//       WHERE Customer.Name = FlightRes.PName
//   FUNCTION F3 Customer.Age = (DATE '2026-07-07' - "Accident-Ins".Birthday) / 365
//   PC PC1 Person (Name, PAddr) SUPERSET Customer (Name, Addr)
//
// Blank lines and "--" comments are ignored. Statements may span lines;
// each starts with one of the keywords SOURCE / JOIN / FUNCTION / PC.

#ifndef EVE_MKB_SERIALIZER_H_
#define EVE_MKB_SERIALIZER_H_

#include <array>
#include <string>
#include <string_view>

#include "common/result.h"
#include "mkb/mkb.h"

namespace eve {

// Renders the full MKB in MISD text form; LoadMkb(SaveMkb(m)) reproduces m.
std::string SaveMkb(const Mkb& mkb);

// The four MISD blocks of SaveMkb, rendered separately (relations, join
// constraints, function-of constraints, PC constraints — in that order).
// Concatenating all four reparses to the same MKB; the version store
// checksums and shares these segments individually so that a change
// touching only one block reuses the other three byte-for-byte.
std::array<std::string, kNumMkbSegments> RenderMkbSegments(const Mkb& mkb);
// One of the four blocks (`segment` < kNumMkbSegments).
std::string RenderMkbSegment(const Mkb& mkb, size_t segment);

// Renders one relation as its MISD SOURCE statement (no trailing newline).
// Also used to encode add-relation capability changes in the change journal.
std::string RenderRelationMisd(const RelationDef& def);
// One constraint's MISD statement (no trailing newline): a line of the
// JOINS, FUNCTIONS or PCS segment.
std::string RenderJoinMisd(const JoinConstraint& jc);
std::string RenderFunctionMisd(const FunctionOfConstraint& fc);
std::string RenderPcMisd(const PCConstraint& pc);

// Parses MISD text into a fresh MKB; all validation of Mkb::Add* applies.
Result<Mkb> LoadMkb(std::string_view text);

// Parses MISD statements into an EXISTING MKB — how new sources joining
// the environment publish their descriptions and semantics (paper Sec. 1:
// ISs join and leave frequently). Statements are applied in order; the
// first failure aborts (already-applied statements stay).
Status AppendMisd(Mkb* mkb, std::string_view text);

}  // namespace eve

#endif  // EVE_MKB_SERIALIZER_H_
