#include "storage/object_state.h"

namespace mca {

ByteBuffer ObjectState::encode_unchecked() const {
  ByteBuffer body;
  body.pack_uid(uid_);
  body.pack_string(type_name_);
  body.pack_bytes(state_.bytes());
  return body;
}

ObjectState ObjectState::decode_unchecked(ByteBuffer& in) {
  ObjectState s;
  s.uid_ = in.unpack_uid();
  s.type_name_ = in.unpack_string();
  s.state_ = ByteBuffer(in.unpack_bytes());
  return s;
}

}  // namespace mca
