//===- support/CodeVersion.h - Digest of the compiler's sources -*- C++ -*-===//
///
/// \file
/// The code-version salt of driver::resultKey: the SHA-256, in hex, of every
/// file under src/. CodeVersion.cmake regenerates its definition whenever a
/// file under src/ changes, appears or disappears.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_CODEVERSION_H
#define BALSCHED_SUPPORT_CODEVERSION_H

#include <string_view>

namespace bsched {

std::string_view codeVersion();

} // namespace bsched

#endif // BALSCHED_SUPPORT_CODEVERSION_H
