pub mod encodings;
