/**
 * @file
 * Test helper for the one online restore path: open serialized v6
 * image bytes.
 */

#ifndef MEDUSA_TESTS_TEST_IMAGE_H
#define MEDUSA_TESTS_TEST_IMAGE_H

#include <utility>
#include <vector>

#include "common/logging.h"
#include "medusa/image.h"

namespace medusa::test {

/** Open a copy of @p bytes; aborts on a decode failure. */
inline core::MaterializedImage
openImage(std::vector<u8> bytes)
{
    auto image = core::MaterializedImage::open(std::move(bytes));
    MEDUSA_CHECK(image.isOk(), "image open: " << image.status().toString());
    return std::move(image).value();
}

} // namespace medusa::test

#endif // MEDUSA_TESTS_TEST_IMAGE_H
