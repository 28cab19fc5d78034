#include "os/protection_model.hh"

namespace sasos::os
{

ProtectionModel::~ProtectionModel() = default;

} // namespace sasos::os
