//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a compact serde replacement sufficient for this project:
//!
//! * [`Serialize`] streams JSON text straight into a [`Serializer`] (compact
//!   or pretty); serializing builds no intermediate tree.
//! * [`Deserialize`] reads from a parsed, JSON-shaped [`Value`] tree;
//!   `Value` exists only for parsing and deserialization.
//! * `#[derive(Serialize, Deserialize)]` macros are re-exported from the
//!   sibling `serde_derive` shim. `serde_json` (also vendored) wraps the
//!   serializer and parses text into the tree.
//!
//! ## Data model
//!
//! * structs with named fields -> JSON objects (declaration order)
//! * one-field tuple structs (newtypes) -> their inner value
//! * multi-field tuple structs and tuples -> JSON arrays
//! * unit enum variants -> the variant name as a string
//! * maps -> JSON objects; keys must be integers (written as quoted digits)
//!   or strings, and any other key type is a serialization error
//! * `Option` -> value or `null`; absent struct fields deserialize to `None`
//!
//! The `#[serde(with = "module")]` field attribute is supported; the named
//! module must provide `serialize(&T, &mut Serializer) -> Result<(), DeError>`
//! and `from_value(&Value) -> Result<T, DeError>`.

mod de;
mod ser;
mod value;

pub use de::{field, DeError, Deserialize};
pub use ser::{MapWriter, SeqWriter, Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;
